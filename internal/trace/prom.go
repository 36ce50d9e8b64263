package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) rendered from the same
// RegistrySnapshot the text dump uses, so a scrape and a registry dump
// can never disagree. The output is byte-stable: families and series
// are emitted in sorted order and floats use shortest-round-trip
// formatting of exactly-representable values (power-of-two bucket
// bounds times a fixed scale).

// formatDisplay renders a float deterministically: integers without a
// decimal point, everything else with strconv's shortest round-trip
// form. Used by both the aligned text dump and the exposition writer.
func formatDisplay(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// splitSeriesName separates a registry name into its family base and
// inline label block. `p2p_stall_seconds{cause="slow_flow"}` yields
// ("p2p_stall_seconds", `cause="slow_flow"`); an unlabeled name yields
// ("name", "").
func splitSeriesName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	base = name[:i]
	labels = strings.TrimSuffix(name[i+1:], "}")
	return base, labels
}

// joinLabels combines an inline label block with an extra label (used
// to append le="..." to histogram bucket series).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	if extra == "" {
		return labels
	}
	return labels + "," + extra
}

type promSeries struct {
	labels string
	value  string // pre-formatted
}

type promFamily struct {
	base   string
	kind   string // "counter", "gauge", "histogram"
	series []promSeries
	hists  []HistStat
}

// WriteProm renders the registry as Prometheus text exposition:
// `# HELP`/`# TYPE` headers per family, counter/gauge sample lines,
// and full histogram families (cumulative `_bucket` series with `le`
// labels, `_sum`, `_count`). Families are sorted by base name and
// series within a family keep the snapshot's sorted order.
func (r *Registry) WriteProm(w io.Writer) error {
	return writePromSnapshot(w, r.Snap())
}

func writePromSnapshot(w io.Writer, snap RegistrySnapshot) error {
	byBase := map[string]*promFamily{}
	var order []string
	family := func(base, kind string) *promFamily {
		f := byBase[base]
		if f == nil {
			f = &promFamily{base: base, kind: kind}
			byBase[base] = f
			order = append(order, base)
		}
		return f
	}
	for _, s := range snap.Stats {
		base, labels := splitSeriesName(s.Name)
		f := family(base, s.Kind)
		f.series = append(f.series, promSeries{labels: labels, value: strconv.FormatInt(s.Value, 10)})
	}
	for _, h := range snap.Hists {
		base, _ := splitSeriesName(h.Name)
		f := family(base, "histogram")
		f.hists = append(f.hists, h)
	}
	sort.Strings(order)
	for _, base := range order {
		f := byBase[base]
		if help := snap.Help[base]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, escapeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSample(w, base, s.labels, s.value); err != nil {
				return err
			}
		}
		for _, h := range f.hists {
			if err := writeHistSamples(w, base, h); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, base, labels, value string) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", base, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", base, labels, value)
	return err
}

func writeHistSamples(w io.Writer, base string, h HistStat) error {
	_, labels := splitSeriesName(h.Name)
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += h.Counts[i]
		le := formatDisplay(h.UpperScaled(i))
		if err := writeSample(w, base+"_bucket", joinLabels(labels, `le="`+le+`"`), strconv.FormatInt(cum, 10)); err != nil {
			return err
		}
	}
	cum += h.Counts[HistBuckets]
	if err := writeSample(w, base+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatInt(cum, 10)); err != nil {
		return err
	}
	if err := writeSample(w, base+"_sum", labels, formatDisplay(h.SumScaled())); err != nil {
		return err
	}
	return writeSample(w, base+"_count", labels, strconv.FormatInt(h.Count, 10))
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// PromMetrics is the result of parsing a text exposition: sample values
// keyed by full series name, and family types keyed by base name.
type PromMetrics struct {
	Samples map[string]float64
	Types   map[string]string
}

// Value returns the sample for a full series name and whether it exists.
func (m PromMetrics) Value(name string) (float64, bool) {
	v, ok := m.Samples[name]
	return v, ok
}

// ParsePromText is a strict mini-parser for the subset of the
// Prometheus text format that WriteProm emits. It exists so tests and
// the `splicetrace scrape` smoke check can validate an exposition
// without external dependencies. Errors report the offending line.
func ParsePromText(data string) (PromMetrics, error) {
	m := PromMetrics{Samples: map[string]float64{}, Types: map[string]string{}}
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				return m, fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return m, fmt.Errorf("line %d: malformed TYPE %q", ln+1, line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return m, fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[3])
				}
				if prev, dup := m.Types[fields[2]]; dup && prev != fields[3] {
					return m, fmt.Errorf("line %d: family %s redeclared as %s (was %s)", ln+1, fields[2], fields[3], prev)
				}
				m.Types[fields[2]] = fields[3]
			case "HELP":
				// HELP text is free-form; nothing to validate beyond arity.
			default:
				return m, fmt.Errorf("line %d: unknown comment directive %q", ln+1, fields[1])
			}
			continue
		}
		name, value, err := parseSampleLine(line)
		if err != nil {
			return m, fmt.Errorf("line %d: %v", ln+1, err)
		}
		if _, dup := m.Samples[name]; dup {
			return m, fmt.Errorf("line %d: duplicate series %s", ln+1, name)
		}
		m.Samples[name] = value
	}
	return m, nil
}

func parseSampleLine(line string) (string, float64, error) {
	// The name ends at the first space outside a label block.
	var nameEnd int
	inLabels := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '{' {
			inLabels = true
		}
		if c == '}' {
			inLabels = false
		}
		if c == ' ' && !inLabels {
			nameEnd = i
			break
		}
	}
	if nameEnd == 0 {
		return "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	if base, labels := splitSeriesName(name); labels != "" {
		if err := validateLabels(labels); err != nil {
			return "", 0, fmt.Errorf("series %s: %v", base, err)
		}
	} else if strings.ContainsAny(name, "{}") {
		return "", 0, fmt.Errorf("malformed series name %q", name)
	}
	rest := strings.TrimSpace(line[nameEnd:])
	// Ignore an optional trailing timestamp.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		if rest == "+Inf" || rest == "-Inf" || rest == "NaN" {
			return "", 0, fmt.Errorf("unexpected non-finite value %q", rest)
		}
		return "", 0, fmt.Errorf("bad value %q: %v", rest, err)
	}
	return name, v, nil
}

// validateLabels checks that a label block is a comma-separated list of
// key="value" pairs with quoted values.
func validateLabels(labels string) error {
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label block %q", labels)
		}
		if eq+1 >= len(rest) || rest[eq+1] != '"' {
			return fmt.Errorf("unquoted label value in %q", labels)
		}
		end := strings.IndexByte(rest[eq+2:], '"')
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", labels)
		}
		rest = rest[eq+2+end+1:]
		if rest == "" {
			return nil
		}
		if rest[0] != ',' {
			return fmt.Errorf("malformed label separator in %q", labels)
		}
		rest = rest[1:]
	}
	return nil
}
