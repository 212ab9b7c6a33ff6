package lint_test

import (
	"strings"
	"testing"

	"gossip/internal/lint"
)

// TestMalformedDirectives checks the badallow fixture programmatically:
// the malformed-directive diagnostics land on the comment lines
// themselves, where a want comment cannot sit, so we assert on the
// Check output directly. Every broken directive must surface as a
// "gossiplint" finding, and — because a broken directive suppresses
// nothing — every time.Now beneath one must still be flagged.
func TestMalformedDirectives(t *testing.T) {
	pkgs := loadFixture(t, "badallow")
	diags := lint.Check(pkgs)

	wantDirective := []string{
		"needs an analyzer name and a reason", // //gossiplint:allow
		"unknown gossiplint directive",        // //gossiplint:silence ...
		"unknown analyzer nosuchanalyzer",     // //gossiplint:allow nosuchanalyzer ...
		"detlint is missing its reason",       // //gossiplint:allow detlint
	}

	var directive, detlint []lint.Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "gossiplint":
			directive = append(directive, d)
		case "detlint":
			detlint = append(detlint, d)
		default:
			t.Errorf("unexpected analyzer in diagnostic: %s", d)
		}
	}

	if len(directive) != len(wantDirective) {
		t.Fatalf("got %d malformed-directive diagnostics, want %d:\n%v", len(directive), len(wantDirective), directive)
	}
	for _, want := range wantDirective {
		found := false
		for _, d := range directive {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no malformed-directive diagnostic contains %q; got %v", want, directive)
		}
	}

	// All four time.Now calls sit under broken directives; none may be
	// suppressed.
	if len(detlint) != 4 {
		t.Errorf("got %d detlint diagnostics, want 4 (broken directives must not suppress):\n%v", len(detlint), detlint)
	}
}
