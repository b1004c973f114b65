// Package repro regenerates every table and figure of the paper's
// evaluation from the analytical model: Table 1 (training validation),
// Table 2 (inference validation), Table 4 (per-GEMM bounds), and Figs. 3-9
// (GEMV calibration, memory dissection, GPU-generation scaling, technology
// -node scaling, bound-type evolution, inference bound analysis, and DRAM
// technology scaling). Each generator returns a typed Table that renders
// as aligned ASCII; the CLI (`optimus reproduce`) and the benchmark
// harness (bench_test.go) both drive these generators.
package repro

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one regenerated experiment.
type Table struct {
	// ID is the experiment key ("table1", "fig6", ...).
	ID string
	// Title describes the experiment as in the paper.
	Title string
	// Header names the columns.
	Header []string
	// Rows hold the cells, already formatted.
	Rows [][]string
	// Notes carry summary statistics and caveats printed under the table.
	Notes []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)

	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Generator produces one experiment.
type Generator func() (Table, error)

// all returns the experiment registry keyed by ID.
func all() map[string]Generator {
	return map[string]Generator{
		"table1": table1,
		"table2": table2,
		"table4": table4,
		"fig3":   fig3,
		"fig4":   fig4,
		"fig5":   fig5,
		"fig6":   fig6,
		"fig7":   fig7,
		"fig8":   fig8,
		"fig9":   fig9,
		// Extension studies beyond the paper's evaluation (DESIGN.md).
		"ext-flash":   extFlash,
		"ext-tco":     extTCO,
		"ext-scaling": extScaling,
	}
}

// IDs returns the experiment keys in stable order.
func IDs() []string {
	m := all()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run generates one experiment by ID.
func Run(id string) (Table, error) {
	g, ok := all()[id]
	if !ok {
		return Table{}, fmt.Errorf("repro: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return g()
}

// formatting helpers shared by the generators.

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func ms(x float64) string  { return fmt.Sprintf("%.0f", x*1e3) }
func us(x float64) string  { return fmt.Sprintf("%.1f", x*1e6) }
func gb(x float64) string  { return fmt.Sprintf("%.1f", x/1e9) }
