// Package expt regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each FigN function
// computes the underlying data and each FprintFigN renders it as the rows
// or series the paper plots; shapes — who wins, by what factor, where the
// knees fall — are asserted by this package's tests.
package expt

import (
	"fmt"
	"io"
)

// writeHeader prints a figure banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "=== %s ===\n", title)
}
