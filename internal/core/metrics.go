package core

import (
	"etap/internal/obs"
)

// pipelineMetrics caches the metric handles the extraction hot path
// updates, resolved once at System construction. A nil *pipelineMetrics
// disables instrumentation entirely (Config.DisableMetrics) — the
// overhead of the enabled path is measured by
// BenchmarkExtractObservability.
type pipelineMetrics struct {
	// Per-stage wall time, in the shared obs stage families.
	snippetDur  *obs.Histogram
	annotateDur *obs.Histogram
	classifyDur *obs.Histogram

	snippets *obs.Counter // snippets scored (classifier invocations)
	events   *obs.Counter // events at/above threshold
	runs     *obs.Counter // extraction calls, stash hits included
	trainDur *obs.Histogram

	queueDepth  *obs.Gauge // pages enqueued, not yet picked up by a worker
	workersBusy *obs.Gauge
}

func newPipelineMetrics(r *obs.Registry) *pipelineMetrics {
	if r == nil {
		r = obs.Default
	}
	return &pipelineMetrics{
		snippetDur:  obs.StageDuration(r, "snippet"),
		annotateDur: obs.StageDuration(r, "annotate"),
		classifyDur: obs.StageDuration(r, "classify"),
		snippets: r.Counter("etap_extract_snippets_scored_total",
			"Snippets run through a driver classifier."),
		events: r.Counter("etap_extract_events_emitted_total",
			"Trigger events emitted at or above threshold."),
		runs: r.Counter("etap_extract_runs_total",
			"Extraction passes (ExtractEvents/ExtractEventsParallel calls)."),
		trainDur: obs.StageDuration(r, "train"),
		queueDepth: r.Gauge("etap_extract_queue_depth",
			"Pages enqueued for the extraction worker pool, not yet claimed."),
		workersBusy: r.Gauge("etap_extract_workers_busy",
			"Extraction workers currently processing a page."),
	}
}
