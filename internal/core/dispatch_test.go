package core

import (
	"math"
	"testing"

	"freewayml/internal/cluster"
	"freewayml/internal/linalg"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// TestDispatchTable holds dispatch to the rows of its table (DESIGN.md, "The
// dispatch table") with synthetic evidence, every threshold at its edge and
// one float inside. Each row names the part of the paper it stands for.
func TestDispatchTable(t *testing.T) {
	const reoccurRatio, dt = 0.5, 4.0 // the reuse band's edge: dist = 2
	// Variables, so that the edges are float64 arithmetic, as in dispatch.
	historyMean, deployed := 0.4, 0.5
	severity := cecSeverityRatio * historyMean
	margin := deployed + cecMargin

	yBar := linalg.Vector{0, 0}
	b := func(distance, historyMean float64) shift.Observation {
		return shift.Observation{Pattern: shift.PatternB, Distance: distance, HistoryMean: historyMean, YBar: yBar}
	}
	c := shift.Observation{Pattern: shift.PatternC, Distance: dt, YBar: yBar}
	cec := func(agreement float64) evidence {
		st := cluster.CECStats{Agreement: agreement, DeployedAgreement: deployed}
		return evidence{cec: &strategy.CECEvidence{Pred: []int{0}, Stats: st}}
	}
	match := func(dist float64) evidence {
		return evidence{match: &strategy.KnowledgeMatch{Snap: []byte{1}, Dist: dist}}
	}
	ensemble := choice{strategy: StrategyEnsemble}
	for _, row := range []struct {
		name, paper string
		obs         shift.Observation
		ev          evidence
		want        choice
	}{
		{"warmup", "Fig. 8", shift.Observation{Pattern: shift.PatternWarmup}, evidence{}, choice{strategy: StrategyWarmup}},
		{"no projection yet", "Fig. 8", shift.Observation{Pattern: shift.PatternB, Distance: 9}, evidence{}, choice{strategy: StrategyWarmup}},
		{"slight A1", "Fig. 8", shift.Observation{Pattern: shift.PatternA1, YBar: yBar}, evidence{}, ensemble},
		{"slight A2", "Fig. 8", shift.Observation{Pattern: shift.PatternA2, YBar: yBar}, evidence{}, ensemble},

		// The severity gate: d_t one float below cecSeverityRatio·μ_d stays
		// with the ensemble whatever CEC would say; at the gate, or with no
		// recent movement, CEC is consulted and serves when it wins.
		{"just below the severity gate", "Sec. IV-C", b(math.Nextafter(severity, 0), historyMean), evidence{}, ensemble},
		{"just below the severity gate with CEC winning", "Sec. IV-C", b(math.Nextafter(severity, 0), historyMean), cec(1), ensemble},
		{"at the severity gate", "Sec. IV-C", b(severity, historyMean), evidence{}, choice{strategy: StrategyCEC, ask: true}},
		{"at the severity gate with CEC winning", "Sec. IV-C", b(severity, historyMean), cec(1), choice{strategy: StrategyCEC}},
		{"no history", "Sec. IV-C", b(1, 0), evidence{}, choice{strategy: StrategyCEC, ask: true}},
		{"no history with CEC winning", "Sec. IV-C", b(1, 0), cec(1), choice{strategy: StrategyCEC}},
		{"no labeled experience", "Sec. IV-C", b(severity, historyMean), evidence{cec: &strategy.CECEvidence{}}, ensemble},

		// The CEC margin: agreement exactly deployed + cecMargin loses the
		// arbitration, the next float up wins it.
		{"agreement at the margin", "Sec. VI-F", b(severity, historyMean), cec(margin), ensemble},
		{"agreement one float over the margin", "Sec. IV-C", b(severity, historyMean), cec(math.Nextafter(margin, 1)), choice{strategy: StrategyCEC}},

		// The reuse band, dist < ReoccurRatio·d_t, and the adoption band
		// inside it, dist < ½·ReoccurRatio·d_t.
		{"knowledge not consulted", "Sec. IV-D", c, evidence{}, choice{strategy: StrategyKnowledge, ask: true}},
		{"no knowledge entry", "Sec. IV-D", c, evidence{match: &strategy.KnowledgeMatch{Dist: math.Inf(1)}}, ensemble},
		{"beyond the reuse band", "Sec. IV-D", c, match(3), ensemble},
		{"at the edge of the reuse band", "Sec. IV-D", c, match(2), ensemble},
		{"one float inside the reuse band", "Sec. IV-D", c, match(math.Nextafter(2, 0)), choice{strategy: StrategyKnowledge}},
		{"between the bands", "Sec. IV-D", c, match(1.5), choice{strategy: StrategyKnowledge}},
		{"at the edge of the adoption band", "Sec. IV-D", c, match(1), choice{strategy: StrategyKnowledge}},
		{"one float inside the adoption band", "Sec. IV-D", c, match(math.Nextafter(1, 0)), choice{strategy: StrategyKnowledge, adopt: true}},
		{"inside the adoption band", "Sec. IV-D", c, match(0.5), choice{strategy: StrategyKnowledge, adopt: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if got := dispatch(row.obs, row.ev, reoccurRatio); got != row.want {
				t.Errorf("%s: dispatch = %+v, want %+v", row.paper, got, row.want)
			}
		})
	}
}
