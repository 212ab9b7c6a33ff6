package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// PruneOptions selects which generations Prune garbage-collects. The
// zero value prunes nothing; enable at least one rule.
type PruneOptions struct {
	// Keep, when > 0, retains only the newest Keep generations of each
	// run ID.
	Keep int
	// MaxAge, when > 0, removes generations whose creation timestamp
	// is older than Now-MaxAge (a generation without a parseable
	// timestamp is never age-pruned).
	MaxAge time.Duration
	// Now anchors MaxAge; the zero value means time.Now().
	Now time.Time
	// Damaged also removes unreadable runs/generations and stranded
	// ".tmp-" staging directories — wreckage only visible because
	// listing skips-and-reports it.
	Damaged bool
	// DryRun plans without deleting anything.
	DryRun bool
}

// PruneVictim is one directory Prune removed (or, dry-run, would
// remove).
type PruneVictim struct {
	ID     string // run ID ("" for store-level wreckage)
	Gen    string // generation name ("" for a whole damaged run entry)
	Dir    string
	Reason string
}

// PrunePlan reports a Prune pass: what was (or would be) removed and
// how many readable generations survive.
type PrunePlan struct {
	Victims []PruneVictim
	Kept    int
	DryRun  bool
}

// Prune garbage-collects old generations by count and age. The newest
// readable generation of every run is always retained — pruning must
// never delete a configuration's only results — so Keep is effectively
// at least 1 and MaxAge never empties a run. Damaged entries are
// removed only when o.Damaged is set. With o.DryRun the plan is
// returned and nothing is touched.
func (s *Store) Prune(o PruneOptions) (*PrunePlan, error) {
	now := o.Now
	if now.IsZero() {
		now = time.Now() //gossiplint:allow detlint prune ages against operator wall time, not simulation state
	}
	plan := &PrunePlan{DryRun: o.DryRun}
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: list store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.Dir, e.Name())
		if strings.Contains(e.Name(), ".tmp-") {
			if o.Damaged {
				plan.add(PruneVictim{Dir: dir, Reason: "stranded staging directory"})
			}
			continue
		}
		if !validID(e.Name()) {
			continue // not the store's: no run ID names it
		}
		gens, damaged, gerr := s.Generations(e.Name())
		if gerr != nil {
			if o.Damaged {
				plan.add(PruneVictim{ID: e.Name(), Dir: dir, Reason: fmt.Sprintf("unreadable run: %v", gerr)})
			}
			continue
		}
		if o.Damaged {
			for _, d := range damaged {
				gen := filepath.Base(d.Dir)
				if d.Dir == dir {
					gen = "" // a damaged flat run is the whole entry
				}
				plan.add(PruneVictim{ID: e.Name(), Gen: gen, Dir: d.Dir, Reason: fmt.Sprintf("unreadable: %v", d.Err)})
			}
			if tmps, err := os.ReadDir(dir); err == nil {
				for _, t := range tmps {
					if t.IsDir() && strings.Contains(t.Name(), ".tmp-") {
						plan.add(PruneVictim{ID: e.Name(), Gen: t.Name(), Dir: filepath.Join(dir, t.Name()), Reason: "stranded staging directory"})
					}
				}
			}
		}
		// The newest generation is immune; older ones fall to either
		// rule.
		for i, g := range gens {
			if i == len(gens)-1 {
				plan.Kept++
				continue
			}
			fromNewest := len(gens) - i // 2 = next-to-newest, …
			switch {
			case o.Keep > 0 && fromNewest > o.Keep:
				plan.add(PruneVictim{ID: e.Name(), Gen: g.Gen, Dir: g.Dir,
					Reason: fmt.Sprintf("beyond -keep %d (generation %d of %d)", o.Keep, i, len(gens))})
			case olderThan(g.Manifest.CreatedAt, now, o.MaxAge):
				plan.add(PruneVictim{ID: e.Name(), Gen: g.Gen, Dir: g.Dir,
					Reason: fmt.Sprintf("created %s, older than %s", g.Manifest.CreatedAt, o.MaxAge)})
			default:
				plan.Kept++
			}
		}
	}
	if o.DryRun {
		return plan, nil
	}
	for _, v := range plan.Victims {
		if err := os.RemoveAll(v.Dir); err != nil {
			return plan, fmt.Errorf("corpus: prune %s: %w", v.Dir, err)
		}
		// A run directory emptied of its last generation is itself
		// garbage (only possible for damaged-only entries: the newest
		// readable generation is never a victim).
		parent := filepath.Dir(v.Dir)
		if parent != s.Dir {
			if rest, err := os.ReadDir(parent); err == nil && len(rest) == 0 {
				if err := os.Remove(parent); err != nil {
					return plan, fmt.Errorf("corpus: prune empty run %s: %w", parent, err)
				}
			}
		}
	}
	if len(plan.Victims) > 0 {
		if err := syncDir(s.Dir); err != nil {
			return plan, err
		}
		// Re-index the runs that lost generations (or vanished), so the
		// query index never lists a pruned generation.
		seen := map[string]bool{}
		var ids []string
		for _, v := range plan.Victims {
			if v.ID != "" && !seen[v.ID] {
				seen[v.ID] = true
				ids = append(ids, v.ID)
			}
		}
		if len(ids) > 0 {
			if err := s.reindexRuns(ids...); err != nil {
				return plan, err
			}
		}
	}
	return plan, nil
}

func (p *PrunePlan) add(v PruneVictim) { p.Victims = append(p.Victims, v) }

// olderThan reports whether a creation timestamp predates now-maxAge;
// an unset or unparseable timestamp never age-matches.
func olderThan(createdAt string, now time.Time, maxAge time.Duration) bool {
	if maxAge <= 0 || createdAt == "" {
		return false
	}
	t, err := time.Parse(time.RFC3339, createdAt)
	if err != nil {
		return false
	}
	return now.Sub(t) > maxAge
}
