package shift

import (
	"fmt"
	"io"

	"freewayml/internal/linalg"
)

// GraphPoint is one node of the shift graph: a batch's 2-D (or d-D) PCA
// projection plus the measurements attached to it. Consecutive points are
// connected chronologically; the edge length is the shift distance (paper
// Fig. 2).
type GraphPoint struct {
	Batch    int
	Y        linalg.Vector
	Distance float64 // edge length from the previous point (0 for the first)
	Severity float64
	Pattern  Pattern
	Accuracy float64 // optional: per-batch real-time accuracy, for Fig. 2d
}

// Graph accumulates the chronological trajectory of batch projections. It is
// the data behind Figure 2 of the paper: plotting Y[0] vs Y[1] and joining
// the points in order reproduces the shift graph, while the Accuracy column
// reproduces the correlated accuracy curve.
type Graph struct {
	points []GraphPoint
}

// Add appends a point built from a detector observation and the real-time
// accuracy measured on the same batch (use NaN when no accuracy is
// available, e.g. for unlabeled batches).
func (g *Graph) Add(obs Observation, accuracy float64) {
	if obs.YBar == nil {
		return // warm-up batches have no projection
	}
	g.points = append(g.points, GraphPoint{
		Batch:    obs.Batch,
		Y:        obs.YBar.Clone(),
		Distance: obs.Distance,
		Severity: obs.Severity,
		Pattern:  obs.Pattern,
		Accuracy: accuracy,
	})
}

// Len returns the number of recorded points.
func (g *Graph) Len() int { return len(g.points) }

// TotalPathLength returns the sum of all edge lengths — a scalar summary of
// how much the distribution wandered.
func (g *Graph) TotalPathLength() float64 {
	var s float64
	for _, p := range g.points {
		s += p.Distance
	}
	return s
}

// WriteCSV emits the graph as CSV with one row per batch:
// batch,y0,y1,...,distance,severity,pattern,accuracy. It is what
// cmd/shiftgraph prints so the Fig. 2 plots can be regenerated with any
// plotting tool.
func (g *Graph) WriteCSV(w io.Writer) error {
	if len(g.points) == 0 {
		_, err := fmt.Fprintln(w, "batch,distance,severity,pattern,accuracy")
		return err
	}
	dim := len(g.points[0].Y)
	header := "batch"
	for j := 0; j < dim; j++ {
		header += fmt.Sprintf(",y%d", j)
	}
	header += ",distance,severity,pattern,accuracy"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, p := range g.points {
		row := fmt.Sprintf("%d", p.Batch)
		for j := 0; j < dim; j++ {
			row += fmt.Sprintf(",%.6f", p.Y[j])
		}
		row += fmt.Sprintf(",%.6f,%.4f,%s,%.4f", p.Distance, p.Severity, p.Pattern, p.Accuracy)
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
