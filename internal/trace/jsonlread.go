package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// jsonlLine mirrors AppendJSONL's encoding for decoding. Args values
// stay raw so their kind can be recovered below.
type jsonlLine struct {
	TUs  int64                      `json:"t_us"`
	Cat  string                     `json:"cat"`
	Name string                     `json:"name"`
	Peer *int                       `json:"peer"`
	Seg  *int                       `json:"seg"`
	Args map[string]json.RawMessage `json:"args"`
}

// ReadJSONL decodes a JSONL trace stream back into events. It is the
// inverse of WriteJSONL up to argument order: JSON objects do not
// preserve it, so decoded Args are sorted by key — a deterministic
// order all downstream analysis shares. Blank lines are skipped; a
// malformed line aborts with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var jl jsonlLine
		if err := json.Unmarshal([]byte(line), &jl); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if jl.TUs > math.MaxInt64/1000 || jl.TUs < math.MinInt64/1000 {
			return nil, fmt.Errorf("line %d: t_us %d overflows a time.Duration", lineNo, jl.TUs)
		}
		ev := Event{
			At:   time.Duration(jl.TUs) * time.Microsecond,
			Peer: -1,
			Seg:  -1,
			Cat:  jl.Cat,
			Name: jl.Name,
		}
		if jl.Peer != nil {
			ev.Peer = *jl.Peer
		}
		if jl.Seg != nil {
			ev.Seg = *jl.Seg
		}
		if len(jl.Args) > 0 {
			keys := make([]string, 0, len(jl.Args))
			for k := range jl.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				a, err := decodeArg(k, jl.Args[k])
				if err != nil {
					return nil, fmt.Errorf("line %d: arg %q: %v", lineNo, k, err)
				}
				ev.Args = append(ev.Args, a)
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// decodeArg recovers an Arg's kind from its raw JSON value: quoted →
// string, integer-shaped → int, otherwise float. AppendJSONL writes
// ints with AppendInt and floats with 'g' formatting, so a float that
// happens to be integral round-trips as ArgInt; the analyzers read
// args by expected kind with fallbacks, so this ambiguity is harmless.
func decodeArg(key string, raw json.RawMessage) (Arg, error) {
	s := string(raw)
	if strings.HasPrefix(s, `"`) {
		var v string
		if err := json.Unmarshal(raw, &v); err != nil {
			return Arg{}, err
		}
		return Str(key, v), nil
	}
	if !strings.ContainsAny(s, ".eE") {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int64(key, v), nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return Arg{}, err
	}
	return Float64(key, v), nil
}

// ArgFloat64 returns the float value of the named argument, accepting
// an int-kinded arg as well (JSONL round-trips integral floats as
// ints), or def.
func (ev Event) ArgFloat64(key string, def float64) float64 {
	if a, ok := ev.Arg(key); ok {
		switch a.Kind {
		case ArgFloat:
			return a.Float
		case ArgInt:
			return float64(a.Int)
		}
	}
	return def
}
