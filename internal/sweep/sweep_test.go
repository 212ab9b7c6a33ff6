package sweep

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"n", "value"}}
	tb.AddRow(1024, 3.14159)
	tb.AddRow("big", "x")
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1024") {
		t.Errorf("render missing content:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "--") {
		t.Error("separator missing")
	}
}

func TestTableAddRowWiderThanHeader(t *testing.T) {
	// Regression: a row with more cells than columns used to survive into
	// Render, which indexes widths[i] sized by len(Columns) and panicked.
	tb := Table{Columns: []string{"a", "b"}}
	tb.AddRow(1, 2, 3, 4)
	if got := len(tb.Rows[0]); got != 2 {
		t.Fatalf("row width = %d, want clamped to 2", got)
	}
	var b strings.Builder
	tb.Render(&b) // must not panic
	if !strings.Contains(b.String(), "1  2") {
		t.Errorf("clamped row rendered wrong:\n%s", b.String())
	}
	// Headerless tables keep arbitrary-width rows (Render guards them).
	free := Table{}
	free.AddRow(1, 2, 3)
	if len(free.Rows[0]) != 3 {
		t.Errorf("headerless row clamped: %v", free.Rows[0])
	}
}

// TestTableWriteCSVCloseError: a failed Close is a failed flush to disk,
// so WriteCSV must report it, as it reports a failed Create.
func TestTableWriteCSVCloseError(t *testing.T) {
	tb := Table{Columns: []string{"a"}}
	tb.AddRow(1)
	if err := tb.WriteCSV("/dev/null", "out"); err == nil {
		t.Error("WriteCSV under /dev/null succeeded")
	}
	saved := createCSV
	defer func() { createCSV = saved }()
	createCSV = func(name string) (io.WriteCloser, error) {
		f, err := saved(name)
		return failClose{f}, err
	}
	if err := tb.WriteCSV(t.TempDir(), "out"); !errors.Is(err, errClose) {
		t.Errorf("WriteCSV with a failing Close returned %v, want the close error", err)
	}
}

var errClose = errors.New("injected close fault")

// failClose closes the file and then reports errClose.
type failClose struct{ io.WriteCloser }

func (f failClose) Close() error {
	if err := f.WriteCloser.Close(); err != nil {
		return err
	}
	return errClose
}

func TestTableWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tb := Table{Columns: []string{"a", "b"}}
	tb.AddRow("x,y", 2.0)
	if err := tb.WriteCSV(dir, "out"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	if !strings.Contains(got, "a,b") || !strings.Contains(got, "\"x,y\",2") {
		t.Errorf("csv content: %q", got)
	}
}

func TestLogSpacedSizes(t *testing.T) {
	s := LogSpacedSizes(1000, 100000, 5)
	if s[0] != 1000 || s[len(s)-1] != 100000 {
		t.Errorf("endpoints wrong: %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("not strictly increasing: %v", s)
		}
	}
	// Roughly geometric: ratios similar.
	r1 := float64(s[1]) / float64(s[0])
	r2 := float64(s[len(s)-1]) / float64(s[len(s)-2])
	if r1/r2 > 1.5 || r2/r1 > 1.5 {
		t.Errorf("spacing not geometric: %v", s)
	}
}

func TestLogSpacedSizesDegenerate(t *testing.T) {
	if got := LogSpacedSizes(10, 10, 3); len(got) != 1 || got[0] != 10 {
		t.Errorf("degenerate sweep wrong: %v", got)
	}
	if got := LogSpacedSizes(10, 100, 1); len(got) != 1 {
		t.Errorf("single-point sweep wrong: %v", got)
	}
}
