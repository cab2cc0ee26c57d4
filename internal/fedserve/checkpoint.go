package fedserve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"mobiledl/internal/nn"
	"mobiledl/internal/trace"
)

// CheckpointStore persists the coordinator's round state between rounds so a
// restarted process resumes training from the last checkpoint instead of
// round 0. Latest-wins per key; Save must be durable when it returns nil.
// *store.Store implements it (the coordinator defines its own seam so this
// package never imports the persistence layer).
type CheckpointStore interface {
	SaveCheckpoint(key string, payload []byte) error
	LoadCheckpoint(key string) ([]byte, bool, error)
}

// checkpointKey namespaces coordinator checkpoints in a store shared with
// the registry's publish records.
func checkpointKey(model string) string { return "fedserve/" + model }

// checkpointWire is the gob-encoded checkpoint payload: everything a fresh
// coordinator needs to continue the run — the global weights, the round
// counter, the accumulated status counters, and the privacy spend. Trainer
// hyperparameters and shards come from Config, not the checkpoint: resuming
// with a different cohort or LR is legitimate.
type checkpointWire struct {
	Round   int
	Weights []byte

	LastLoss     float64
	LastAccuracy float64
	BestAccuracy float64

	MergedUpdates  int
	FailedClients  int
	RejectedRounds int
	UpBytes        int64
	DownBytes      int64

	// DPSteps restores the moments accountant: the epsilon already spent is
	// spent regardless of the restart.
	DPSteps int

	Published []PublishedVersion
	SavedAt   time.Time
}

func encodeCheckpoint(wire checkpointWire) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("fedserve: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeCheckpoint(b []byte) (checkpointWire, error) {
	var wire checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&wire); err != nil {
		return checkpointWire{}, fmt.Errorf("fedserve: decode checkpoint: %w", err)
	}
	return wire, nil
}

// resume restores the coordinator from the latest checkpoint in
// cfg.Checkpoint, if any. A missing checkpoint or an unreadable one starts
// the run fresh (unreadable is logged and counted — the disk's problem must
// not stop training); weights that no longer fit the factory's architecture,
// or that predate the v1 weights format, are a hard error, because silently
// training a fresh model while claiming the checkpoint's round counter would
// corrupt the run's provenance.
func (c *Coordinator) resume() (bool, error) {
	payload, ok, err := c.cfg.Checkpoint.LoadCheckpoint(checkpointKey(c.cfg.Model))
	if err != nil || !ok {
		if err != nil {
			c.status.CheckpointErrors++
			c.logger.Warn("checkpoint load failed; starting from round 0",
				"model", c.cfg.Model, "err", err)
		}
		return false, nil
	}
	wire, err := decodeCheckpoint(payload)
	if err != nil {
		c.status.CheckpointErrors++
		c.logger.Warn("checkpoint undecodable; starting from round 0",
			"model", c.cfg.Model, "err", err)
		return false, nil
	}
	// In-place restore: c.vals aliases the global's parameter tensors, so
	// decoding into the existing model keeps them aligned.
	if err := nn.DecodeWeights(c.global, wire.Weights); err != nil {
		why := "do not fit the configured architecture"
		if errors.Is(err, nn.ErrWeightsFormat) {
			why = "blob predates format v1 (data dir written by an older build)"
		}
		return false, fmt.Errorf("fedserve: checkpoint weights %s: %w", why, err)
	}
	c.startRound = wire.Round
	c.status.Round = wire.Round
	c.status.StartRound = wire.Round
	c.status.LastLoss = wire.LastLoss
	c.status.LastAccuracy = wire.LastAccuracy
	c.status.BestAccuracy = wire.BestAccuracy
	c.status.MergedUpdates = wire.MergedUpdates
	c.status.FailedClients = wire.FailedClients
	c.status.RejectedRounds = wire.RejectedRounds
	c.round.UpBytes, c.round.DownBytes = wire.UpBytes, wire.DownBytes
	c.status.UpBytes, c.status.DownBytes = wire.UpBytes, wire.DownBytes
	c.status.Published = append([]PublishedVersion(nil), wire.Published...)
	if c.acct != nil && wire.DPSteps > 0 {
		c.acct.AccumulateSteps(wire.DPSteps)
		if eps, err := c.acct.Epsilon(c.dpDelta()); err == nil {
			c.status.Epsilon = eps
		}
	}
	c.logger.Info("resumed from checkpoint",
		"model", c.cfg.Model, "round", wire.Round,
		"best_accuracy", wire.BestAccuracy, "saved_at", wire.SavedAt)
	return true, nil
}

// saveCheckpoint encodes the current round state and writes it through the
// checkpoint store. Called from the driver goroutine only (the global's
// weights are stable between rounds).
func (c *Coordinator) saveCheckpoint(round int) error {
	blob, err := nn.EncodeWeights(c.global)
	if err != nil {
		return err
	}
	c.mu.Lock()
	wire := checkpointWire{
		Round:          round,
		Weights:        blob,
		LastLoss:       c.status.LastLoss,
		LastAccuracy:   c.status.LastAccuracy,
		BestAccuracy:   c.status.BestAccuracy,
		MergedUpdates:  c.status.MergedUpdates,
		FailedClients:  c.status.FailedClients,
		RejectedRounds: c.status.RejectedRounds,
		UpBytes:        c.status.UpBytes,
		DownBytes:      c.status.DownBytes,
		Published:      append([]PublishedVersion(nil), c.status.Published...),
		SavedAt:        time.Now(),
	}
	c.mu.Unlock()
	if c.acct != nil {
		wire.DPSteps = c.acct.Steps()
	}
	payload, err := encodeCheckpoint(wire)
	if err != nil {
		return err
	}
	return c.cfg.Checkpoint.SaveCheckpoint(checkpointKey(c.cfg.Model), payload)
}

// checkpoint persists round state on the driver goroutine, degrading
// gracefully: a failed save is logged and counted, training continues, and
// the state stays pending so the next cadence point retries.
func (c *Coordinator) checkpoint(round int, sp trace.Span) {
	cs := sp.Child("checkpoint")
	err := c.saveCheckpoint(round)
	cs.EndErr(err)
	if err != nil {
		c.mu.Lock()
		c.status.CheckpointErrors++
		c.mu.Unlock()
		c.logger.Warn("checkpoint save failed; training continues, will retry",
			"model", c.cfg.Model, "round", round, "err", err)
		return
	}
	c.mergedSinceCk = 0
	c.mu.Lock()
	c.status.Checkpoints++
	c.mu.Unlock()
	c.logger.Debug("checkpointed round state", "model", c.cfg.Model, "round", round)
}
