package trace

// StallFacts is what a stack observed about a peer whose playback just
// stalled: plain observations, no judgement. Each stack gathers what it
// can see (a fact it cannot see stays zero) and Cause names the stall
// from them, so the order in which causes outrank each other exists
// once. Facts are gathered with pure reads, before the pool shrinks:
// the call that reveals a stall is most often the completion that ends
// it, and the download the viewer was waiting for must still count.
type StallFacts struct {
	// Own-side conditions covering the stall's (possibly retroactive)
	// timestamp: the peer itself was crashed, its own access link was
	// down, or a corruption window was discarding its downloads.
	OwnCrash    bool
	OwnLinkDown bool
	Corrupting  bool

	// InFlight is the download pool's size. The next six describe a
	// non-empty pool. Pending downloads are requests a source accepted
	// and is not serving (no bytes move); Trickling counts those fed a
	// useless trickle by a slowloris. LinkDown and Frozen count moving
	// downloads that ride a downed link or sit in an RTO freeze.
	InFlight  int
	Pending   int
	Trickling int
	LinkDown  int
	Frozen    int
	// AllQuarantined: every in-flight download comes from a quarantined
	// source (the escape hatch kept liveness on the least-trusted set).
	AllQuarantined bool
	// Burst: the peer's link, or the link of a source serving it, was in
	// the Gilbert–Elliott bad state.
	Burst bool

	// The rest describe an empty pool. NothingMissing: every segment is
	// already held, the playhead will catch up. Otherwise Holders counts
	// the live sources of the next wanted segment and QuarantinedHolders
	// those of them in quarantine; TrackerDown and CrashedHolder say why
	// there may be none; Blocked says holders exist but none would serve
	// (choked, upload slots full) and the peer is waiting out a retry.
	NothingMissing     bool
	Holders            int
	QuarantinedHolders int
	TrackerDown        bool
	CrashedHolder      bool
	Blocked            bool
}

// Cause names the stall's proximate cause from the closed set of
// StallCauses: the one precedence order both stacks share. The peer's
// own outage outranks everything, then its own link, then a corruption
// window (the re-downloads, not the scheduler, starved playback). With
// an empty pool: a tracker outage over a crashed holder over no source
// at all; then all holders quarantined over blocked sources over a
// scheduler gap. With downloads in flight: nothing but unserved requests
// (trickled or silent), then every moving download on a downed link,
// then any RTO freeze, then an all-quarantined serving set, then burst
// loss — and otherwise they were moving, just slower than playback.
func (f StallFacts) Cause() string {
	switch {
	case f.OwnCrash:
		return CausePeerCrash
	case f.OwnLinkDown:
		return CauseLinkDown
	case f.Corrupting:
		return CauseCorruptSegment
	}
	if f.InFlight == 0 {
		switch {
		case f.NothingMissing:
			return CauseSlowFlow
		case f.Holders == 0 && f.TrackerDown:
			return CauseTrackerDown
		case f.Holders == 0 && f.CrashedHolder:
			return CausePeerCrash
		case f.Holders == 0:
			return CauseNoSource
		case f.QuarantinedHolders == f.Holders:
			return CausePeerQuarantined
		case f.Blocked:
			return CauseChokedSources
		}
		return CauseEmptyPool
	}
	switch {
	case f.Pending == f.InFlight && f.Trickling > 0:
		return CauseSlowServe
	case f.Pending == f.InFlight:
		return CauseStaleHave
	case f.LinkDown > 0 && f.LinkDown == f.InFlight-f.Pending:
		return CauseLinkDown
	case f.Frozen > 0:
		return CauseFrozenFlow
	case f.AllQuarantined:
		return CausePeerQuarantined
	case f.Burst:
		return CauseBurstLoss
	}
	return CauseSlowFlow
}
