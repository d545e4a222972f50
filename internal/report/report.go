package report

import (
	"strings"
)

// Table is a simple rows-and-headers table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// widths computes per-column display widths.
func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table with aligned columns and a rule under the
// header.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", w[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, x := range w {
		total += x
	}
	b.WriteString(strings.Repeat("-", total+2*(len(w)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
