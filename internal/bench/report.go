// Machine-readable baselines (DESIGN.md §12): one report codec behind
// BENCH_engine.json, BENCH_rails.json and BENCH_coll.json. Each row
// carries simulated results, which are deterministic and compared
// exactly, next to one harness wall-clock metric, which is
// machine-dependent and compared within its family's tolerance.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// Row is one record of a baseline family. A row type supplies its key for
// baseline matching, its simulated results as "name=value" items (a curve
// gives one item per size), its toleranced wall metric, and the family it
// belongs to.
type Row interface {
	key() string
	exact() []string
	wall() (name string, value float64)
	family() family
}

// family is what distinguishes one baseline file from another beyond its
// row type.
type family struct {
	schema    string  // document tag, checked on Read
	tolerance float64 // allowed wall regression (0.15 = 15%)
	regen     string  // command that admits a new row into the baseline
}

// Report is a BENCH_*.json document.
type Report[R Row] struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Runs   []R    `json:"runs"`
}

// NewReport starts an empty report of R's family stamped with the
// toolchain.
func NewReport[R Row]() *Report[R] {
	var r R
	return &Report[R]{Schema: r.family().schema, Go: runtime.Version()}
}

// WriteReport writes the report as indented JSON, newline-terminated so
// the committed baseline diffs cleanly.
func WriteReport[R Row](path string, rep *Report[R]) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads a report and checks its schema tag.
func ReadReport[R Row](path string) (*Report[R], error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report[R]{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if want := NewReport[R]().Schema; rep.Schema != want {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, want)
	}
	return rep, nil
}

// MergeReports overlays update onto base: rows sharing a key are replaced
// by update's measurement, new keys append in measurement order, and base
// rows the update did not re-measure survive. This is how a committed
// baseline is regenerated piecemeal — the np=4096 engine row takes ~35
// minutes, so re-measuring the cheap rows must not force re-measuring it.
func MergeReports[R Row](base, update *Report[R]) *Report[R] {
	merged := &Report[R]{Schema: update.Schema, Go: update.Go, Runs: slices.Clone(base.Runs)}
	at := make(map[string]int, len(merged.Runs))
	for i, r := range merged.Runs {
		at[r.key()] = i
	}
	for _, r := range update.Runs {
		if i, ok := at[r.key()]; ok {
			merged.Runs[i] = r
		} else {
			at[r.key()] = len(merged.Runs)
			merged.Runs = append(merged.Runs, r)
		}
	}
	return merged
}

// CompareReports checks current against a committed baseline. For every
// row both measured, each simulated item must match exactly — a mismatch
// means the simulation changed, never a mere performance regression — and
// the wall metric may not regress beyond the family's tolerance. Baseline
// rows current did not measure are skipped, but a measured row missing
// from the baseline fails: unvetted rows are admitted deliberately, never
// silently. Returns one error per violation.
func CompareReports[R Row](baseline, current *Report[R]) []error {
	base := make(map[string]R, len(baseline.Runs))
	for _, r := range baseline.Runs {
		base[r.key()] = r
	}
	var errs []error
	matched := 0
	for _, cur := range current.Runs {
		fam := cur.family()
		b, ok := base[cur.key()]
		if !ok {
			errs = append(errs, fmt.Errorf(
				"%s: row missing from baseline — measured %s; regenerate the baseline with `%s` to admit it",
				cur.key(), strings.Join(cur.exact(), " "), fam.regen))
			continue
		}
		matched++
		got, want := cur.exact(), b.exact()
		if len(got) != len(want) {
			errs = append(errs, fmt.Errorf("%s: %d simulated items, baseline has %d",
				cur.key(), len(got), len(want)))
		} else {
			for i := range got {
				if got[i] != want[i] {
					errs = append(errs, fmt.Errorf("%s: simulated %s diverges from baseline %s",
						cur.key(), got[i], want[i]))
				}
			}
		}
		name, w := cur.wall()
		if _, bw := b.wall(); bw > 0 && w > bw*(1+fam.tolerance) {
			errs = append(errs, fmt.Errorf(
				"%s: %s regressed %.1f%% (%.4g vs baseline %.4g, tolerance %.0f%%)",
				cur.key(), name, 100*(w/bw-1), w, bw, 100*fam.tolerance))
		}
	}
	if matched == 0 && len(current.Runs) > 0 {
		errs = append(errs, fmt.Errorf("no current row matches any baseline row"))
	}
	return errs
}

// Publish is the report tail the bench commands share: it writes rep to
// out (overlaid onto the existing file with merge) and gates it against
// the baseline at compare, either step skipped when its path is empty.
// It returns the exit code: 1 when the gate fails, 2 on a file error.
func Publish[R Row](rep *Report[R], out string, merge bool, compare string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if out != "" {
		final := rep
		if merge {
			if prev, err := ReadReport[R](out); err == nil {
				final = MergeReports(prev, rep)
			} else if !os.IsNotExist(err) {
				return fail(err)
			}
		}
		if err := WriteReport(out, final); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if compare != "" {
		base, err := ReadReport[R](compare)
		if err != nil {
			return fail(err)
		}
		if errs := CompareReports(base, rep); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "FAIL: %v\n", e)
			}
			return 1
		}
		var r R
		fmt.Printf("within tolerance of %s (%.0f%%)\n", compare, 100*r.family().tolerance)
	}
	return 0
}
