package federated

import (
	"fmt"

	"mobiledl/internal/data"
	"mobiledl/internal/tensor"
)

// Step is a server step: it folds the round's successful updates (merged)
// into the global values in place and returns the round's training loss.
// failed are the clients whose training errored, feedback only.
type Step func(global []*tensor.Matrix, merged, failed []Update) (float64, error)

// Round is the synchronous round RunFedAvg, RunDPFedAvg and the fedserve
// coordinator share: fan the cohort out, split failed clients from merged
// ones, apply the caller's Step, account the traffic. Selection and
// evaluation stay with the caller; nothing of a round outlives Run.
type Round struct {
	Trainer Trainer
	Shards  []*data.ClientShard
	Global  []*tensor.Matrix // updated in place by the step
	Workers int              // fan-out pool size (0 = GOMAXPROCS)
	// UpBytes and DownBytes count the traffic of every round run so far: the
	// model sent to each selected client, the upload of each merged update.
	UpBytes, DownBytes int64
}

// Run trains the selected clients from their pre-drawn seeds, applies step
// to the merged updates (an empty cohort still takes it), and returns the
// round's stats (Accuracy -1) and every update in selection order. The error
// is FanOut's refusal of the cohort, else the step's, else the first failed
// client's; in the last two cases the round still counts.
func (r *Round) Run(round int, selected []int, seeds []int64, step Step) (RoundStats, []Update, error) {
	var values int
	for _, v := range r.Global {
		values += v.Size()
	}
	paramBytes := int64(values) * BytesPerValue
	r.DownBytes += int64(len(selected)) * paramBytes
	st := RoundStats{Round: round, Accuracy: -1}
	updates, err := FanOut(r.Trainer, r.Shards, round, selected, r.Global, seeds, r.Workers)
	if err == nil {
		merged := make([]Update, 0, len(updates))
		var failed []Update
		for _, u := range updates {
			if u.Err != nil {
				failed = append(failed, u)
			} else {
				merged = append(merged, u)
			}
		}
		st.TrainLoss, err = step(r.Global, merged, failed)
		if err == nil && len(failed) > 0 {
			err = fmt.Errorf("client %d: %w", failed[0].Client, failed[0].Err)
		}
		st.ParticipatingUsers = len(merged)
		r.UpBytes += int64(len(merged)) * paramBytes
	}
	st.CumulativeUpBytes, st.CumulativeDownBytes = r.UpBytes, r.DownBytes
	return st, updates, err
}
