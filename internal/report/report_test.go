package report

import (
	"strings"
	"testing"
)

func TestStringAlignment(t *testing.T) {
	tbl := New("title", "a", "longheader")
	tbl.AddRow("x", "1")
	tbl.AddRow("longervalue", "2")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Fatalf("first line = %q", lines[0])
	}
	// Header, rule, two rows.
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), lines)
	}
	// All data lines must align: the second column starts at the same
	// offset in every row.
	idx := strings.Index(lines[1], "longheader")
	if idx < 0 {
		t.Fatal("header missing")
	}
	if !strings.HasPrefix(lines[3][idx:], "1") {
		t.Fatalf("row 1 misaligned: %q", lines[3])
	}
	if !strings.HasPrefix(lines[4][idx:], "2") {
		t.Fatalf("row 2 misaligned: %q", lines[4])
	}
}

func TestShortRowsPadded(t *testing.T) {
	tbl := New("", "a", "b", "c")
	tbl.AddRow("only")
	out := tbl.String()
	if !strings.Contains(out, "only") {
		t.Fatal("row lost")
	}
	// Must not panic and must keep 3 columns in the header.
	if !strings.Contains(out, "a") || !strings.Contains(out, "c") {
		t.Fatal("headers lost")
	}
}

func TestNoTitle(t *testing.T) {
	tbl := New("", "h")
	tbl.AddRow("v")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Fatal("empty title must not emit a blank first line")
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := New("t", "h1", "h2")
	out := tbl.String()
	if !strings.Contains(out, "h1") || !strings.Contains(out, "h2") {
		t.Fatal("empty table must still render headers")
	}
}
