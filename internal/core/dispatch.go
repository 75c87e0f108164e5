package core

import (
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// The dispatch table's thresholds besides ReoccurRatio (a shift.Config
// field); nothing outside this file reads them.
const (
	// cecSeverityRatio: CEC is consulted only when d_t reaches this multiple
	// of the recent mean movement: the models are "no longer suitable".
	cecSeverityRatio = 5.0
	// cecMargin: both agreements come from a handful of points, so CEC must
	// beat the deployed model by this much before it displaces it.
	cecMargin = 0.05
)

// evidence is what the consulted mechanisms returned; nil: not consulted.
type evidence struct {
	cec   *strategy.CECEvidence
	match *strategy.KnowledgeMatch
}

// choice is the table's answer: the mechanism that serves the batch, or,
// with ask, the one whose evidence it needs first; adopt makes the knowledge
// match the working short model as well.
type choice struct {
	strategy   Strategy
	ask, adopt bool
}

// dispatch is the paper's Fig. 8 selector, the one place that decides which
// mechanism answers a batch: a pure function of the observation, the
// evidence consulted so far and the stream's ReoccurRatio. First match wins
// (d_t is obs.Distance, μ_d obs.HistoryMean, dist the knowledge match's
// distance, agree and deployed CEC's and the deployed short model's
// agreement with the nearest labeled experience):
//
//	observation                 evidence                          serves                   paper
//	warmup, or no projection ȳ  —                                 warmup (short model)     Fig. 8
//	C                           not consulted                     ask knowledge reuse      Sec. IV-D
//	C                           none, or dist ≥ ReoccurRatio·d_t  ensemble                 Sec. IV-D
//	C                           dist < ½·ReoccurRatio·d_t         knowledge reuse, adopts  Sec. IV-D (SC3)
//	C                           dist < ReoccurRatio·d_t           knowledge reuse          Sec. IV-D
//	B, μ_d > 0, d_t < 5·μ_d     —                                 ensemble                 Sec. IV-C
//	B                           not consulted                     ask CEC                  Sec. IV-C
//	B                           no labeled experience             ensemble                 Sec. IV-C
//	B                           agree ≤ deployed + 0.05           ensemble                 Sec. VI-F
//	B                           agree > deployed + 0.05           CEC                      Sec. IV-C
//	A₁ / A₂                     —                                 ensemble                 Fig. 8
//
// A match outside the reuse band would displace an adequate, continuously
// trained model; one inside the adoption band is not relearned (SC3). A
// sudden shift that does not dwarf the recent movement is left to the
// ensemble, which re-adapts within a couple of batches.
func dispatch(obs shift.Observation, ev evidence, reoccurRatio float64) choice {
	switch {
	case obs.Pattern == shift.PatternWarmup || obs.YBar == nil:
		return choice{strategy: StrategyWarmup}
	case obs.Pattern == shift.PatternC:
		gate := reoccurRatio * obs.Distance
		switch {
		case ev.match == nil:
			return choice{strategy: StrategyKnowledge, ask: true}
		case ev.match.Snap == nil || ev.match.Dist >= gate:
			return choice{strategy: StrategyEnsemble}
		}
		return choice{strategy: StrategyKnowledge, adopt: ev.match.Dist < gate/2}
	case obs.Pattern == shift.PatternB:
		switch {
		case obs.HistoryMean > 0 && obs.Distance < cecSeverityRatio*obs.HistoryMean:
			return choice{strategy: StrategyEnsemble}
		case ev.cec == nil:
			return choice{strategy: StrategyCEC, ask: true}
		case ev.cec.Pred == nil, ev.cec.Stats.Agreement <= ev.cec.Stats.DeployedAgreement+cecMargin:
			return choice{strategy: StrategyEnsemble}
		}
		return choice{strategy: StrategyCEC}
	}
	return choice{strategy: StrategyEnsemble}
}
