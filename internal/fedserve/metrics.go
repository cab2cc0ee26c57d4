package fedserve

import "mobiledl/internal/metrics"

// WriteMetrics renders the coordinator's training progress as Prometheus
// series labeled with the published model name — the training slice of a
// serving /metrics payload, wired via serve.Server.AddMetricsSource so the
// serving package never imports this one.
func (c *Coordinator) WriteMetrics(w *metrics.PromWriter) {
	st := c.Status()
	ml := metrics.Label{Name: "model", Value: st.Model}
	w.Gauge("mobiledl_train_round", "Last completed federated round.", float64(st.Round), ml)
	w.Gauge("mobiledl_train_inflight_clients", "Client updates currently training.", float64(st.InFlight), ml)
	w.Counter("mobiledl_train_published_total", "Model versions accepted and hot-published.", float64(len(st.Published)), ml)
	w.Counter("mobiledl_train_rejected_total", "Evaluated rounds rejected for regressing past AccuracyDrop.", float64(st.RejectedRounds), ml)
	w.Counter("mobiledl_train_merged_updates_total", "Client updates folded into the global model.", float64(st.MergedUpdates), ml)
	w.Counter("mobiledl_train_failed_clients_total", "Client training errors (skipped, not fatal).", float64(st.FailedClients), ml)
	if st.LastAccuracy >= 0 {
		w.Gauge("mobiledl_train_last_accuracy", "Held-out accuracy of the last evaluated round.", st.LastAccuracy, ml)
	}
	if st.BestAccuracy >= 0 {
		w.Gauge("mobiledl_train_best_accuracy", "Best held-out accuracy published so far.", st.BestAccuracy, ml)
	}
	if st.Epsilon > 0 {
		w.Gauge("mobiledl_train_epsilon", "Cumulative user-level privacy spend (DP runs).", st.Epsilon, ml)
	}
	if st.StartRound > 0 {
		w.Gauge("mobiledl_train_start_round", "Checkpointed round this run resumed from (absent on fresh starts).", float64(st.StartRound), ml)
	}
	w.Counter("mobiledl_train_checkpoints_total", "Round-state checkpoints persisted.", float64(st.Checkpoints), ml)
	w.Counter("mobiledl_train_checkpoint_errors_total", "Checkpoint saves or loads that failed (training continued).", float64(st.CheckpointErrors), ml)
}
