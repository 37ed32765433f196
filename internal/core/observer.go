package core

// RunObserver receives run-lifecycle callbacks from the run loop
// (RunSourceContext): one call per merged interval, plus checkpoint, resume
// and halt boundaries. It is the seam the observability layer (internal/obs)
// hangs its run journal on — pure observation, never steering: the engine ignores everything an
// observer does, so simulation results are bit-identical with an observer
// attached or not.
//
// Callbacks arrive from the run's merging goroutine in interval order, never
// concurrently for one run; an observer shared between runs must synchronize
// internally.
type RunObserver interface {
	// ObserveInterval fires after interval i has been merged and folded.
	ObserveInterval(interval int, ir IntervalResult)
	// ObserveCheckpoint fires after a checkpoint covering the first done
	// intervals was durably written.
	ObserveCheckpoint(done int)
	// ObserveResume fires once, before the first interval, when the run
	// resumes from a checkpoint at interval start.
	ObserveResume(start int)
	// ObserveHalt fires when the run stops cleanly at its HaltAfter
	// boundary (ErrHalted), after the boundary checkpoint was written.
	ObserveHalt(done int)
}

// CacheStatsSink is optionally implemented by a RunObserver that wants the
// decision-cache hit rate in its progress records. The run loop hands it a
// lifetime (hits, calls) reader over the run's controller before the
// first interval; the observer may call it at any point during the run.
type CacheStatsSink interface {
	AttachCacheStats(stats func() (hits, calls uint64))
}
