package core

// recordRecovery folds one watchdog event into the health counters, the
// bounded event log and the observed batch's record. The watchdog checks
// inside Train, so it runs on the Process goroutine between the record's
// begin and finish.
func (l *Learner) recordRecovery(ev RecoveryEvent) {
	l.obs.recordDivergence(ev.RolledBack)
	l.bo.rec.divergences++
	l.health.mu.Lock()
	defer l.health.mu.Unlock()
	l.health.divergences++
	if ev.RolledBack {
		l.health.recoveries++
	}
	if len(l.health.events) == maxRecoveryEvents {
		copy(l.health.events, l.health.events[1:])
		l.health.events = l.health.events[:maxRecoveryEvents-1]
	}
	l.health.events = append(l.health.events, ev)
}

// Stats are the learner's fault-tolerance counters: what the guard
// sanitized or refused, what the watchdog detected and rolled back, and
// what the persistence layer degraded around.
type Stats struct {
	// SanitizedValues counts non-finite feature values repaired by the
	// guard (clamp/impute policies); SanitizedBatches the batches affected.
	SanitizedValues  int
	SanitizedBatches int
	// RejectedBatches counts batches refused by the reject policy.
	RejectedBatches int
	// Divergences counts watchdog detections (NaN/Inf weights or loss
	// explosions); Recoveries counts the rollbacks that followed.
	Divergences int
	Recoveries  int
	// KnowledgeSkipped counts corrupt knowledge entries skipped during a
	// degraded checkpoint restore.
	KnowledgeSkipped int
	// SpillFailures and SpillLoadFailures surface the knowledge store's
	// filesystem fault counters (failed spill writes / unreadable spill
	// reads).
	SpillFailures     int
	SpillLoadFailures int
}

// Stats returns the learner's fault-tolerance counters.
func (l *Learner) Stats() Stats {
	l.health.mu.Lock()
	s := Stats{
		SanitizedValues:  l.health.sanitizedValues,
		SanitizedBatches: l.health.sanitizedBatches,
		RejectedBatches:  l.health.rejectedBatches,
		Divergences:      l.health.divergences,
		Recoveries:       l.health.recoveries,
		KnowledgeSkipped: l.health.knowledgeSkipped,
	}
	l.health.mu.Unlock()
	s.SpillFailures = l.kdg.SpillFailures()
	s.SpillLoadFailures = l.kdg.LoadFailures()
	return s
}

// RecoveryEvents returns a copy of the retained watchdog event log (the
// most recent maxRecoveryEvents divergences).
func (l *Learner) RecoveryEvents() []RecoveryEvent {
	l.health.mu.Lock()
	defer l.health.mu.Unlock()
	return append([]RecoveryEvent(nil), l.health.events...)
}
