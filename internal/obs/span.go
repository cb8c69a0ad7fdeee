package obs

// Stage metric names: every pipeline stage reports its wall time and
// item count into these two families, so /metrics shows one per-stage
// timing catalog.
const (
	StageDurationMetric = "etap_stage_duration_seconds"
	StageItemsMetric    = "etap_stage_items_total"
)

// StageDuration returns the per-stage duration histogram of reg (nil
// means Default) for one stage name.
func StageDuration(reg *Registry, stage string) *Histogram {
	if reg == nil {
		reg = Default
	}
	return reg.Histogram(StageDurationMetric,
		"Wall time per pipeline-stage invocation.", nil, "stage", stage)
}

// StageItems returns the per-stage item counter of reg (nil means
// Default) for one stage name.
func StageItems(reg *Registry, stage string) *Counter {
	if reg == nil {
		reg = Default
	}
	return reg.Counter(StageItemsMetric,
		"Items processed per pipeline stage.", "stage", stage)
}
