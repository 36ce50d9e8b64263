package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Series is one line of a table: a named sequence of y-values over the
// shared x-axis.
type Series struct {
	Name   string
	Values []string
}

// Table is the text rendering of one figure: an x-axis (e.g. the
// bandwidth sweep) and one series per splicing technique or policy.
type Table struct {
	// Title names the figure ("Figure 2: Total number of stalls ...").
	Title string
	// XLabel names the x-axis column.
	XLabel string
	// XValues are the x-axis points, rendered as given.
	XValues []string
	// Series are the lines. Each must have len(Values) == len(XValues).
	Series []Series
}

// AddSeries appends a line to the figure.
func (f *Table) AddSeries(name string, values []string) {
	f.Series = append(f.Series, Series{Name: name, Values: values})
}

// Validate checks that every series covers the x-axis.
func (f *Table) Validate() error {
	if len(f.XValues) == 0 {
		return fmt.Errorf("experiment: figure %q has no x values", f.Title)
	}
	for _, s := range f.Series {
		if len(s.Values) != len(f.XValues) {
			return fmt.Errorf("experiment: figure %q: series %q has %d values, want %d",
				f.Title, s.Name, len(s.Values), len(f.XValues))
		}
	}
	return nil
}

// Render produces an aligned text table:
//
//	Figure 2: ...
//	Available Bandwidth (kB/s) | gop | 2s | 4s | 8s
//	128                        |  24 | 14 | 11 | 16
func (f *Table) Render() string {
	var b strings.Builder
	b.WriteString(f.Title)
	b.WriteByte('\n')
	if err := f.Validate(); err != nil {
		b.WriteString("  <" + err.Error() + ">\n")
		return b.String()
	}
	// Column widths.
	cols := make([][]string, 1+len(f.Series))
	cols[0] = append([]string{f.XLabel}, f.XValues...)
	for i, s := range f.Series {
		cols[i+1] = append([]string{s.Name}, s.Values...)
	}
	widths := make([]int, len(cols))
	for i, col := range cols {
		for _, cell := range col {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	nRows := len(f.XValues) + 1
	for r := 0; r < nRows; r++ {
		for c, col := range cols {
			if c == 0 {
				fmt.Fprintf(&b, "%-*s", widths[c], col[r])
			} else {
				fmt.Fprintf(&b, " | %*s", widths[c], col[r])
			}
		}
		b.WriteByte('\n')
		if r == 0 {
			// Separator under the header.
			total := widths[0]
			for _, w := range widths[1:] {
				total += w + 3
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// WriteCSV renders the figure as CSV: a header with the x-label and series
// names, then one row per x value.
func (f *Table) WriteCSV(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiment: write csv: %w", err)
	}
	for i, x := range f.XValues {
		row := []string{x}
		for _, s := range f.Series {
			row = append(row, s.Values[i])
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiment: write csv: %w", err)
	}
	return nil
}
