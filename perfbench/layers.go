package main

// Per-layer attribution of traced queries: the span tallies, the
// counter deltas of every layer's registry, and the runtime's own
// counters, each reported per traced query. Two totals reached by
// independent paths are cross-checked on every traced query.

import (
	"fmt"
	"time"
)

// recordLayers adds one traced query's per-layer values to the sums.
func (b *bench) recordLayers(a, z counters, wall time.Duration) {
	add := func(name string, v float64) { b.layer[name] += v }
	r := spans
	r.mu.Lock()
	stmtDur := append([]time.Duration(nil), r.stmtDur...)
	execs, requests := r.execs, r.requests
	var stmtSpan time.Duration
	for _, d := range stmtDur {
		stmtSpan += d
	}
	add("core.rounds", float64(r.rounds))
	add("core.stmts", float64(execs))
	add("core.task_s", r.taskTime.Seconds())
	add("core.barrier_wait_s", r.barrier.Seconds())
	add("driver.stmt_s", r.stmtBusy.Seconds())
	add("shard.exchange_s", r.exchTime.Seconds())
	add("shard.rows_exchanged", float64(r.exchRows))
	add("ckpt.saves", float64(r.ckptSaves))
	add("ckpt.save_s", r.ckptTime.Seconds())
	add("ckpt.bytes", float64(r.ckptBytes))
	ckptBytes := r.ckptBytes
	r.mu.Unlock()
	add("core.self_s", (wall - r.driverTime()).Seconds())
	b.stmtDur = append(b.stmtDur, stmtDur...)

	add("driver.retries", counterDelta(a.clients, z.clients, "driver_retries_total"))
	engineStmt := histSeconds(a.regs, z.regs, "engine_statement_seconds")
	add("engine.stmt_s", engineStmt)
	add("wire.transport_s", histSeconds(a.clients, z.clients, "wire_roundtrip_seconds")-
		histSeconds(a.regs, z.regs, "wire_request_seconds"))
	add("wire.roundtrips", counterDelta(a.clients, z.clients, "wire_roundtrips_total"))
	add("wire.bytes", counterDelta(a.clients, z.clients, "wire_bytes_written_total")+
		counterDelta(a.clients, z.clients, "wire_bytes_read_total"))
	add("serve.queue_wait_s", histSeconds(a.regs, z.regs, "serve_queue_wait_seconds"))

	for i := range z.engine {
		e0, e1 := a.engine[i], z.engine[i]
		add("engine.lock_wait_s", (e1.LockWait - e0.LockWait).Seconds())
		add("engine.rows_scanned", float64(e1.RowsScanned-e0.RowsScanned))
		add("engine.rows_joined", float64(e1.RowsJoined-e0.RowsJoined))
		add("engine.rows_grouped", float64(e1.RowsGrouped-e0.RowsGrouped))
		add("engine.rows_written", float64(e1.RowsInserted-e0.RowsInserted+
			e1.RowsUpdated-e0.RowsUpdated+e1.RowsDeleted-e0.RowsDeleted))
		hits := z.cache[i].Hits - a.cache[i].Hits
		b.cacheHits += hits
		b.cacheLookups += hits + z.cache[i].Misses - a.cache[i].Misses
		b.vecBatches += z.vec[i][0] - a.vec[i][0]
		b.vecFallbacks += z.vec[i][1] - a.vec[i][1]
	}
	add("engine.morsels", counterDelta(a.regs, z.regs, "sqloop_parallel_morsels_total"))
	add("engine.worker_busy_s", histSeconds(a.regs, z.regs, "sqloop_parallel_worker_busy_seconds"))

	add("pager.page_reads", counterDelta(a.regs, z.regs, "sqloop_pager_page_reads"))
	add("pager.page_writes", counterDelta(a.regs, z.regs, "sqloop_pager_page_writes"))
	add("pager.evictions", counterDelta(a.regs, z.regs, "sqloop_pager_evictions"))
	b.pagerHitPct = gaugeMax(z.regs, "sqloop_pager_hit_rate_percent")
	if b.sys.dataDir != "" && a.wchar >= 0 && z.wchar >= 0 {
		// Everything this process wrote during the query went to the
		// data directory or to the snapshot files.
		written := float64(z.wchar-a.wchar-ckptBytes) / float64(len(b.g.edges)*edgeBytesPerRow)
		add("pager.write_amp", written)
	}

	add("runtime.alloc_bytes", float64(z.rt.allocBytes-a.rt.allocBytes))
	add("runtime.gc_cpu_s", z.rt.gcCPU-a.rt.gcCPU)
	add("runtime.gc_cycles", float64(z.rt.gcCycles-a.rt.gcCycles))

	// Cross-checks. The engine's own statement time is spent inside the
	// driver calls, so it cannot exceed their spans.
	if engineStmt > stmtSpan.Seconds() {
		b.problem(fmt.Errorf("cross-check: engine statement time %.6fs exceeds driver spans %.6fs",
			engineStmt, stmtSpan.Seconds()))
	}
	// Every statement the driver ran reached an engine, and over the
	// wire every frame the driver sent (hello, execute, lazy prepare,
	// release) reached a server.
	if got := counterDelta(a.regs, z.regs, "engine_statements_total"); got != float64(execs) {
		b.problem(fmt.Errorf("cross-check: engines counted %.0f statements, the span driver ran %d",
			got, execs))
	}
	if b.sys.wire {
		if got := counterDelta(a.regs, z.regs, "wire_requests_total"); got != float64(requests) {
			b.problem(fmt.Errorf("cross-check: servers counted %.0f requests, the span driver sent %d",
				got, requests))
		}
	}
}

// perLayer lists the per-layer metrics and their units, in report
// order; BENCHMARK.json lists the same names.
var perLayer = []struct{ name, unit string }{
	{"core.self_s", "s"}, {"core.rounds", "count"}, {"core.stmts", "count"},
	{"core.task_s", "s"}, {"core.barrier_wait_s", "s"},
	{"driver.stmt_s", "s"}, {"driver.stmt_p50_us", "us"}, {"driver.stmt_p99_us", "us"},
	{"driver.retries", "count"},
	{"wire.transport_s", "s"}, {"wire.roundtrips", "count"}, {"wire.bytes", "bytes"},
	{"serve.queue_wait_s", "s"},
	{"shard.exchange_s", "s"}, {"shard.rows_exchanged", "count"},
	{"engine.stmt_s", "s"}, {"engine.lock_wait_s", "s"},
	{"engine.rows_scanned", "count"}, {"engine.rows_joined", "count"},
	{"engine.rows_grouped", "count"}, {"engine.rows_written", "count"},
	{"engine.stmt_cache_hit_ratio", "ratio"}, {"engine.vec_batches", "count"},
	{"engine.vec_fallback_ratio", "ratio"}, {"engine.morsels", "count"},
	{"engine.worker_busy_s", "s"},
	{"pager.page_reads", "count"}, {"pager.page_writes", "count"}, {"pager.evictions", "count"},
	{"pager.hit_ratio", "ratio"}, {"pager.write_amp", "ratio"}, {"pager.disk_bytes", "bytes"},
	{"ckpt.saves", "count"}, {"ckpt.save_s", "s"}, {"ckpt.bytes", "bytes"},
	{"runtime.alloc_bytes", "bytes"}, {"runtime.gc_cpu_s", "s"}, {"runtime.gc_cycles", "count"},
	{"setup.generate_s", "s"}, {"setup.load_s", "s"},
	{"trace.query_s", "s"}, {"trace.overhead_s", "s"},
}

// layerMetrics fills the report with per-traced-query averages, the
// ratios over the whole traced phase, and the set-up split.
func (b *bench) layerMetrics(rep *report, genS, loadS, diskBytes float64) {
	n := float64(len(b.tracedWall))
	vals := make(map[string]float64, len(perLayer))
	for k, v := range b.layer {
		vals[k] = v / n
	}
	vals["driver.stmt_p50_us"] = float64(percentile(b.stmtDur, 50).Nanoseconds()) / 1e3
	vals["driver.stmt_p99_us"] = float64(percentile(b.stmtDur, 99).Nanoseconds()) / 1e3
	vals["engine.stmt_cache_hit_ratio"] = ratio(b.cacheHits, b.cacheLookups)
	vals["engine.vec_batches"] = float64(b.vecBatches) / n
	vals["engine.vec_fallback_ratio"] = ratio(b.vecFallbacks, b.vecBatches)
	vals["pager.hit_ratio"] = b.pagerHitPct / 100
	vals["pager.disk_bytes"] = diskBytes
	vals["setup.generate_s"] = genS
	vals["setup.load_s"] = loadS
	vals["trace.query_s"] = median(b.tracedWall)
	vals["trace.overhead_s"] = median(b.tracedWall) - median(b.wall)
	for _, m := range perLayer {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
