// Package fault is the deterministic fault-injection subsystem: a Plan
// is a seeded, reproducible schedule of typed events, each one whole
// fault — a crash-until-rejoin session (churn), a seeder or tracker
// outage, a link flap, a burst-loss, corruption, adversary or
// duplication window, or a link-rate step. Consumers read a Plan as
// Edges, the instants windows begin and end: the emulated stack
// compiles them against the sim clock (internal/simpeer). Tests of the
// real stack fire their faults themselves.
//
// Determinism contract (DESIGN.md §9.2): generators draw only from their
// own seeded rand.Rand, never a global or engine RNG, so a Plan is a
// pure function of its arguments. An empty Plan schedules nothing and
// must leave every consumer bit-identical to a run without the fault
// layer at all — the golden tests enforce this.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Kind is the type of an injected fault. Every kind but KindLinkRate is
// a window: it holds from Event.At for Event.Dur and then ends.
type Kind int

const (
	// KindPeerCrash takes a node offline for the window: its flows are
	// cancelled and its in-flight segments return to the swarm pool
	// immediately. At the end it rejoins with its on-disk segments (a
	// process restart).
	KindPeerCrash Kind = iota
	// KindLinkDown administratively downs a node's links, freezing every
	// flow that touches it, and restores them at the end.
	KindLinkDown
	// KindLinkRate sets a node's link bandwidth to BytesPerSec without
	// downing it. It is a step, not a window: Dur is zero and the rate
	// holds until the next KindLinkRate (see RateDip).
	KindLinkRate
	// KindTrackerDown makes the tracker unavailable: joins and rejoins
	// defer until the window ends; connected peers keep trading.
	KindTrackerDown
	// KindBurstLoss installs a Gilbert–Elliott burst-loss model (the
	// Loss field) on a node's access link, shadowing its baseline
	// i.i.d. loss rate for the window.
	KindBurstLoss
	// KindCorrupt is a payload-corruption window on a node: each
	// downloaded segment fails checksum verification with probability
	// Percent/100 per attempt and must be fetched again.
	KindCorrupt
	// KindAdversary is an adversarial-behavior window on a node: the
	// peer misbehaves AS A SOURCE according to the Adversary field
	// (persistent corrupter, intermittent polluter, stale-have liar, or
	// slowloris). Unlike KindCorrupt — which models a victim's flaky
	// path — the adversary window marks the serving peer as the byzantine
	// party, which is what per-peer reputation must detect.
	KindAdversary
	// KindDuplicate is a duplicated-delivery window on a node: every
	// PIECE it serves is delivered twice, so receivers must be
	// idempotent (the pumba netem "duplication" impairment). Per-packet
	// duplication is below the fluid flow model's granularity, so the
	// emulation only traces the window; no stack duplicates deliveries.
	KindDuplicate
)

// kindNames is the one table of canonical wire/trace names: what a
// kind's window is called where it begins and where it ends (a step has
// no end). The trace.Ev* fault constants spell the same strings.
var kindNames = [...]struct{ begin, end string }{
	KindPeerCrash:   {"peer_crash", "peer_rejoin"},
	KindLinkDown:    {"link_down", "link_up"},
	KindLinkRate:    {"link_rate", ""},
	KindTrackerDown: {"tracker_down", "tracker_up"},
	KindBurstLoss:   {"burst_loss_start", "burst_loss_end"},
	KindCorrupt:     {"corrupt_start", "corrupt_end"},
	KindAdversary:   {"adversary_start", "adversary_end"},
	KindDuplicate:   {"duplicate_start", "duplicate_end"},
}

// valid reports whether k is one of the declared kinds.
func (k Kind) valid() bool { return k >= 0 && int(k) < len(kindNames) }

// String returns the canonical name of the kind: the name its window
// begins under.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k].begin
}

// AdversaryKind selects the misbehavior of a KindAdversary window.
type AdversaryKind int

const (
	// AdvNone is the zero value: no adversarial behavior.
	AdvNone AdversaryKind = iota
	// AdvCorrupter serves bytes that always fail manifest verification:
	// every segment downloaded FROM this peer during the window is
	// discarded by the requester.
	AdvCorrupter
	// AdvPolluter corrupts intermittently: each serve fails verification
	// with probability Percent/100, drawn per attempt from a pure hash
	// (PolluteDraw) so retries get fresh draws and the schedule stays
	// bit-identical across runs and -workers values.
	AdvPolluter
	// AdvStaleHave advertises every segment (stale or fabricated HAVE
	// claims) but never serves a byte: requesters hang until their serve
	// timeout fires.
	AdvStaleHave
	// AdvSlowloris accepts requests and trickles bytes at BytesPerSec —
	// slow enough that requesters hit their serve timeout with the
	// transfer still incomplete.
	AdvSlowloris
)

// String returns the canonical trace name of the adversary kind.
func (a AdversaryKind) String() string {
	switch a {
	case AdvNone:
		return "none"
	case AdvCorrupter:
		return "corrupter"
	case AdvPolluter:
		return "polluter"
	case AdvStaleHave:
		return "stale_have"
	case AdvSlowloris:
		return "slowloris"
	default:
		return fmt.Sprintf("adversary(%d)", int(a))
	}
}

// GEModel parameterizes a Gilbert–Elliott burst-loss model, the one
// type for it: a KindBurstLoss window carries it and netem.SetGEModel
// installs it. PGood and PBad are the good/bad-state packet-loss rates
// in [0, 1); P13 and P31 are the good->bad and bad->good transition
// hazards in events per second (pumba's loss-gemodel naming), so
// sojourn times are exponential with means 1/P13 and 1/P31.
type GEModel struct {
	PGood float64
	PBad  float64
	P13   float64
	P31   float64
}

// Validate reports whether the model is usable: both loss rates in
// [0, 1) and both transition hazards positive.
func (m GEModel) Validate() error {
	if m.PGood < 0 || m.PGood >= 1 || m.PBad < 0 || m.PBad >= 1 {
		return fmt.Errorf("GE loss rates outside [0, 1): pg=%v pb=%v", m.PGood, m.PBad)
	}
	if m.P13 <= 0 || m.P31 <= 0 {
		return fmt.Errorf("GE transition rates must be positive: p13=%v p31=%v", m.P13, m.P31)
	}
	return nil
}

// Event is one scheduled fault, and a whole one: a window carries its
// duration, so a fault that begins always ends. The window is
// [At, At+Dur); KindLinkRate alone is a step and leaves Dur zero. Node
// addresses the swarm's peers by index (0 = seeder, 1..N = leechers)
// and is ignored for tracker events. BytesPerSec is used by
// KindLinkRate and the slowloris adversary (trickle rate), Loss only by
// KindBurstLoss, Percent by KindCorrupt and the polluter adversary, and
// Adversary only by KindAdversary.
type Event struct {
	At          time.Duration
	Dur         time.Duration
	Kind        Kind
	Node        int
	BytesPerSec int64
	Loss        GEModel
	Percent     float64
	Adversary   AdversaryKind
}

// Plan is a schedule of fault events. The zero value is the empty plan.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Edge is one instant at which a consumer acts on an Event: the
// beginning of its window (or its step), or the window's end.
type Edge struct {
	Event               // the fault this edge belongs to
	At    time.Duration // when the edge fires: Event.At, or Event.At+Dur for the end
	End   bool
}

// Name returns the canonical wire/trace name of the edge, e.g.
// "peer_crash" for the beginning of a KindPeerCrash window and
// "peer_rejoin" for its end.
func (e Edge) Name() string {
	if e.End && e.Kind.valid() {
		return kindNames[e.Kind].end
	}
	return e.Kind.String()
}

// Edges returns what the plan asks consumers to do, in ascending time
// order: each event's beginning and, Dur later, its end (a step — zero
// Dur — has only a beginning). The sort is stable over authored order
// (event by event, a beginning before its own end), so same-instant
// edges fire in a deterministic order on every run.
func (p Plan) Edges() []Edge {
	edges := make([]Edge, 0, 2*len(p.Events))
	for _, ev := range p.Events {
		edges = append(edges, Edge{Event: ev, At: ev.At})
		if ev.Dur > 0 {
			edges = append(edges, Edge{Event: ev, At: ev.At + ev.Dur, End: true})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].At < edges[j].At })
	return edges
}

// Validate checks structural sanity in one pass over Edges, reporting
// the first offending event in time order: non-negative times, a
// positive Dur on every window (an outage that never ends plus a sole
// segment holder gone would turn the emulation's retry loop into a
// livelock that only the event budget stops — DESIGN.md §9.1), node
// indices within [0, maxNode], per-kind parameters, and no two windows
// of one kind open on one node at once.
func (p Plan) Validate(maxNode int) error {
	type key struct {
		kind Kind
		node int
	}
	open := map[key]bool{}
	for _, e := range p.Edges() {
		w := key{e.Kind, e.Node}
		if e.Kind == KindTrackerDown {
			w.node = 0 // one tracker: Node is ignored
		}
		if e.End {
			delete(open, w)
			continue
		}
		if err := e.Event.check(maxNode); err != nil {
			return err
		}
		if open[w] {
			return fmt.Errorf("fault: %s: begins while an earlier %s window is still open", e.desc(), e.Kind)
		}
		if e.Dur > 0 {
			open[w] = true
		}
	}
	return nil
}

// desc names the event in error messages.
func (ev Event) desc() string {
	if ev.Kind == KindTrackerDown {
		return fmt.Sprintf("%s at %v", ev.Kind, ev.At)
	}
	return fmt.Sprintf("%s node %d at %v", ev.Kind, ev.Node, ev.At)
}

// check validates one event on its own: kind, time, duration, node and
// the parameters its kind reads.
func (ev Event) check(maxNode int) error {
	polluter := ev.Kind == KindAdversary && ev.Adversary == AdvPolluter
	slowloris := ev.Kind == KindAdversary && ev.Adversary == AdvSlowloris
	switch {
	case !ev.Kind.valid():
		return fmt.Errorf("fault: event at %v has unknown kind %d", ev.At, int(ev.Kind))
	case ev.At < 0:
		return fmt.Errorf("fault: %s: negative time", ev.desc())
	case ev.Kind == KindLinkRate && ev.Dur != 0:
		return fmt.Errorf("fault: %s: a rate step takes no duration, got %v (see RateDip)", ev.desc(), ev.Dur)
	case ev.Kind != KindLinkRate && ev.Dur <= 0:
		return fmt.Errorf("fault: %s: window needs a positive duration, got %v", ev.desc(), ev.Dur)
	case ev.Kind != KindTrackerDown && (ev.Node < 0 || ev.Node > maxNode):
		return fmt.Errorf("fault: %s: node out of range [0,%d]", ev.desc(), maxNode)
	case ev.Kind == KindAdversary && (ev.Adversary <= AdvNone || ev.Adversary > AdvSlowloris):
		return fmt.Errorf("fault: %s: invalid adversary kind %d", ev.desc(), int(ev.Adversary))
	case (ev.Kind == KindLinkRate || slowloris) && ev.BytesPerSec <= 0:
		return fmt.Errorf("fault: %s: non-positive rate %d", ev.desc(), ev.BytesPerSec)
	case (ev.Kind == KindCorrupt || polluter) && !(ev.Percent > 0 && ev.Percent <= 100):
		return fmt.Errorf("fault: %s: percent %v outside (0, 100]", ev.desc(), ev.Percent)
	case ev.Kind == KindBurstLoss && ev.Loss.Validate() != nil:
		return fmt.Errorf("fault: %s: %w", ev.desc(), ev.Loss.Validate())
	}
	return nil
}

// Merge concatenates plans into one. The result preserves authored
// order within each plan; consumers read it in time order via Edges.
func Merge(plans ...Plan) Plan {
	var out Plan
	for _, p := range plans {
		out.Events = append(out.Events, p.Events...)
	}
	return out
}

// window is the plan of one window event.
func window(ev Event) Plan { return Plan{Events: []Event{ev}} }

// minOffline floors churn offline sessions so a rejoin never lands on
// the same instant as its crash.
const minOffline = 500 * time.Millisecond

// Churn generates exponential on/off sessions for each node: online for
// Exp(meanOnline), then offline — one KindPeerCrash window — for
// Exp(meanOffline) (floored at 500ms), repeat until horizon. Sessions
// that would cross the horizon end just inside it, so the plan always
// validates. The schedule is a pure function of (seed, nodes, horizon,
// meanOnline, meanOffline); events are authored node by node.
func Churn(seed int64, nodes []int, horizon, meanOnline, meanOffline time.Duration) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	for _, node := range nodes {
		at := time.Duration(rng.ExpFloat64() * float64(meanOnline))
		for at < horizon {
			off := time.Duration(rng.ExpFloat64() * float64(meanOffline))
			if off < minOffline {
				off = minOffline
			}
			up := at + off
			if up >= horizon {
				up = horizon - time.Millisecond
				if up <= at {
					break // no room for the window; drop the crash
				}
			}
			p.Events = append(p.Events, Event{At: at, Dur: up - at, Kind: KindPeerCrash, Node: node})
			at = up + time.Duration(rng.ExpFloat64()*float64(meanOnline))
		}
	}
	return p
}

// SeederOutage takes the seeder (node 0) down for [start, start+dur).
func SeederOutage(start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindPeerCrash, Node: 0})
}

// TrackerOutage makes the tracker unavailable for [start, start+dur).
func TrackerOutage(start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindTrackerDown})
}

// LinkFlap downs a node's links for [start, start+dur).
func LinkFlap(node int, start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindLinkDown, Node: node})
}

// RateDip degrades a node's link rate to dipTo for [start, start+dur),
// then restores it to the given rate: two rate steps.
func RateDip(node int, start, dur time.Duration, dipTo, restore int64) Plan {
	return Plan{Events: []Event{
		{At: start, Kind: KindLinkRate, Node: node, BytesPerSec: dipTo},
		{At: start + dur, Kind: KindLinkRate, Node: node, BytesPerSec: restore},
	}}
}

// BurstLoss opens a Gilbert–Elliott burst-loss window on a node for
// [start, start+dur). While open, the model's two-state chain shadows
// the node's baseline i.i.d. loss rate.
func BurstLoss(node int, start, dur time.Duration, m GEModel) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindBurstLoss, Node: node, Loss: m})
}

// Corruption opens a payload-corruption window on a node for
// [start, start+dur): each segment it downloads fails verification
// with probability percent/100 per attempt and is fetched again.
func Corruption(node int, start, dur time.Duration, percent float64) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindCorrupt, Node: node, Percent: percent})
}

// Corrupter marks a node as a persistent corrupter for
// [start, start+dur): every segment served FROM it during the window
// fails verification at the requester.
func Corrupter(node int, start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindAdversary, Node: node, Adversary: AdvCorrupter})
}

// Polluter marks a node as an intermittent polluter for
// [start, start+dur): each serve fails verification with probability
// percent/100, drawn per attempt from PolluteDraw.
func Polluter(node int, start, dur time.Duration, percent float64) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindAdversary, Node: node, Adversary: AdvPolluter, Percent: percent})
}

// StaleHaveLiar marks a node as a stale-have liar for
// [start, start+dur): it advertises every segment but never serves a
// byte, so requesters hang until their serve timeout.
func StaleHaveLiar(node int, start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindAdversary, Node: node, Adversary: AdvStaleHave})
}

// Slowloris marks a node as a slowloris for [start, start+dur): it
// accepts requests and trickles bytes at trickleBytesPerSec, slow
// enough that requesters hit their serve timeout mid-transfer.
func Slowloris(node int, start, dur time.Duration, trickleBytesPerSec int64) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindAdversary, Node: node, Adversary: AdvSlowloris, BytesPerSec: trickleBytesPerSec})
}

// Duplication opens a duplicated-delivery window (KindDuplicate) on a
// node for [start, start+dur).
func Duplication(node int, start, dur time.Duration) Plan {
	return window(Event{At: start, Dur: dur, Kind: KindDuplicate, Node: node})
}
