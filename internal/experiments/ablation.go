package experiments

import (
	"fmt"
	"strings"

	"freewayml/internal/core"
	"freewayml/internal/datasets"
	"freewayml/internal/metrics"
)

// AblationRow compares a design choice against its off switch.
type AblationRow struct {
	Name    string
	OnGAcc  float64
	OnSI    float64
	OffGAcc float64
	OffSI   float64
}

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// disorder-modulated ASW decay, the Gaussian-kernel distance ensemble and
// the disorder-threshold knowledge policy.
type AblationResult struct {
	Dataset string
	Rows    []AblationRow
}

// runConfigured drives FreewayML with a mutated config over the dataset.
func runConfigured(dataset string, opt Options, mutate func(*core.Config)) (*metrics.Prequential, error) {
	src, err := datasets.Build(dataset, opt.BatchSize, opt.Seed)
	if err != nil {
		return nil, err
	}
	cfg := experimentCoreConfig("mlp", opt)
	if mutate != nil {
		mutate(&cfg)
	}
	l, err := core.NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		return nil, err
	}
	return RunPrequential(freewaySystem{l: l}, src, opt.MaxBatches)
}

// Ablations runs every design-choice ablation on the given dataset.
func Ablations(dataset string, opt Options) (*AblationResult, error) {
	res := &AblationResult{Dataset: dataset}
	cases := []struct {
		name string
		on   func(*core.Config)
		off  func(*core.Config)
	}{
		{
			name: "disorder-modulated ASW decay",
			on:   nil,
			off:  func(c *core.Config) { c.Window.DisorderBoost = 0 },
		},
		{
			name: "Gaussian distance ensemble",
			on:   nil,
			// A huge sigma makes every kernel weight ~1: uniform averaging.
			off: func(c *core.Config) { c.Sigma = 1e9 },
		},
		{
			name: "disorder-threshold knowledge policy",
			on:   nil,
			// β=1 puts every window below the threshold, so both models are
			// saved on every close (save-everything policy).
			off: func(c *core.Config) { c.Beta = 1 },
		},
	}
	for _, cse := range cases {
		on, err := runConfigured(dataset, opt, cse.on)
		if err != nil {
			return nil, err
		}
		off, err := runConfigured(dataset, opt, cse.off)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:    cse.name,
			OnGAcc:  on.GAcc(),
			OnSI:    on.SI(),
			OffGAcc: off.GAcc(),
			OffSI:   off.SI(),
		})
	}
	return res, nil
}

// String renders the ablation comparison.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablations on %s\n", r.Dataset)
	fmt.Fprintf(&sb, "%-36s | %-17s | %-17s\n", "Design choice", "On (G_acc / SI)", "Off (G_acc / SI)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-36s | %6.2f%% / %6.3f | %6.2f%% / %6.3f\n",
			row.Name, 100*row.OnGAcc, row.OnSI, 100*row.OffGAcc, row.OffSI)
	}
	return sb.String()
}
