package main

// metricSpec declares one reported metric: its name, unit and which
// direction is better. BENCHMARK.json lists the same entries (plus a
// bound for each end-to-end metric); TestCatalogMatchesBenchmarkJSON
// keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is what a --trace 0 run reports. Each workload defines the
// operation its latency, throughput and CPU metrics count (README.md);
// those are per-layer metrics, listed below.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer is what a --trace 1 run reports. A metric of a layer the
// workload does not exercise reads 0 with no samples. The workload's
// latency and throughput — p50_ms, p99_ms and ops_per_s — and its CPU
// per operation in ms are reported here, without a bound, because on a
// shared machine they follow the machine's speed of the moment too
// closely to gate on (README.md).
//
// Only metrics that leads or search measure are listed. A run also
// prints, as report lines, metrics that neither can give a value: the
// p99s of layers timed on fewer than 1,000 samples (the 20 docs/s
// trickle, the rarer read kinds, GC pauses), the p50s of /score and
// reviews (about 20 samples), failed_ratio (ok_ratio carries it), and
// the webhook-delivery metrics and lead quality that only the
// undeclared ingest workload measures (README.md says why it is not
// declared).
var perLayer = []metricSpec{
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"trace.overhead_p50_ratio", "ratio", "lower"},
	{"trace.overhead_cpu_ratio", "ratio", "lower"},
	{"loadgen.late_ms.p50", "ms", "lower"},
	{"ack_ms.p50", "ms", "lower"},
	{"serve.ingest_ms.p50", "ms", "lower"},
	{"serve.read_ms.leads.p50", "ms", "lower"},
	{"serve.read_ms.leads_tenant.p50", "ms", "lower"},
	{"serve.read_ms.companies.p50", "ms", "lower"},
	{"serve.read_bytes.leads", "bytes", "lower"},
	{"serve.read_bytes.leads_tenant", "bytes", "lower"},
	{"serve.read_bytes.companies", "bytes", "lower"},
	{"serve.read_bytes.score", "bytes", "lower"},
	{"serve.read_bytes.review", "bytes", "lower"},
	{"alert.wal.fsyncs_per_doc", "count", "lower"},
	{"alert.wal.batch_mean", "count", "higher"},
	{"alert.queue_wait_ms.p50", "ms", "lower"},
	{"alert.dedup_drop_ratio", "ratio", "lower"},
	{"web.ingest_ms.p50", "ms", "lower"},
	{"index.search_ms.phrase.p50", "ms", "lower"},
	{"index.search_ms.phrase.p99", "ms", "lower"},
	{"index.search_ms.keyword.p50", "ms", "lower"},
	{"index.search_ms.keyword.p99", "ms", "lower"},
	{"index.search_ms.cooccur.p50", "ms", "lower"},
	{"index.search_ms.cooccur.p99", "ms", "lower"},
	{"index.postings_per_query", "count", "lower"},
	{"index.cache_hit_ratio", "ratio", "higher"},
	{"index.build_s", "s", "lower"},
	{"index.reopen_s", "s", "lower"},
	{"index.flushes", "count", "lower"},
	{"index.merges", "count", "lower"},
	{"core.extract_ms.p50", "ms", "lower"},
	{"core.snippets_per_doc", "count", "lower"},
	{"core.events_per_doc", "count", "higher"},
	{"snippet.split_us_per_doc", "us", "lower"},
	{"ner.us_per_snippet", "us", "lower"},
	{"pos.us_per_snippet", "us", "lower"},
	{"annotate.us_per_snippet", "us", "lower"},
	{"classify.us_per_snippet", "us", "lower"},
	{"core.batch_extract_s", "s", "lower"},
	{"train.s", "s", "lower"},
	{"store.add_ms.p50", "ms", "lower"},
	{"store.find_ms.p50", "ms", "lower"},
	{"store.leads", "count", "higher"},
	{"rank.company_mrr_ms", "ms", "lower"},
	{"rank.blend_ms", "ms", "lower"},
	{"tenant.cache_hit_ratio", "ratio", "higher"},
	{"tenant.match_us", "us", "lower"},
	{"kb.lookup_us", "us", "lower"},
	{"go.alloc_kb_per_op", "KiB", "lower"},
	{"go.gc_cpu_ms_per_op", "ms", "lower"},
	{"go.live_heap_mb", "MB", "lower"},
	{"process.cores_busy", "cores", "lower"},
}
