// Package sweep renders experiment results: Table is the aligned-text
// and CSV form of a report or a sweep summary, and LogSpacedSizes builds
// the geometric x grids of the paper's figures. It runs nothing; the
// loops live in internal/runner and internal/exp.
package sweep

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends one formatted row; values are Sprinted with %v. When the
// table has a header, extra cells beyond the column count are dropped (a
// row wider than the header would make Render index past its width table
// and panic).
func (t *Table) AddRow(cells ...any) {
	if len(t.Columns) > 0 && len(cells) > len(t.Columns) {
		cells = cells[:len(t.Columns)]
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			// Cells past the header (rows appended directly to Rows)
			// render unpadded instead of indexing past widths.
			if i < len(widths) {
				c = pad(c, widths[i])
			}
			parts[i] = c
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// createCSV creates WriteCSV's file. It is a variable so a test can make
// the file's Close fail.
var createCSV = func(name string) (io.WriteCloser, error) { return os.Create(name) }

// WriteCSV writes the table as name.csv under dir (creating dir).
func (t *Table) WriteCSV(dir, name string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sweep: create csv dir: %w", err)
	}
	f, err := createCSV(filepath.Join(dir, name+".csv"))
	if err != nil {
		return fmt.Errorf("sweep: create csv: %w", err)
	}
	// A failed Close is a failed flush to disk: report it rather than
	// claiming success with a truncated file.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sweep: close csv: %w", cerr)
		}
	}()
	write := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		_, err := fmt.Fprintln(f, strings.Join(quoted, ","))
		return err
	}
	if err := write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// LogSpacedSizes returns k graph sizes geometrically spaced in [lo, hi]
// (inclusive endpoints, deduplicated, ascending) — the x grid of the
// paper's figures.
func LogSpacedSizes(lo, hi, k int) []int {
	if k < 2 || hi <= lo {
		return []int{lo}
	}
	out := make([]int, 0, k)
	ratio := float64(hi) / float64(lo)
	for i := 0; i < k; i++ {
		x := float64(lo) * math.Pow(ratio, float64(i)/float64(k-1))
		v := int(x + 0.5)
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
