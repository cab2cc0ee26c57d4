package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"mobiledl/internal/data"
	"mobiledl/internal/deepmood"
	"mobiledl/internal/metrics"
	"mobiledl/internal/opt"
)

func init() {
	register("fig5", "Fig. 5: per-participant mood-prediction accuracy vs training sessions", runFig5)
	register("fig6", "Fig. 6: multi-view feature patterns of the top-5 active users", runFig6)
}

// Fig5Point is one participant in the Fig. 5 scatter: how many sessions they
// contributed to training and the model's accuracy on their test sessions.
type Fig5Point struct {
	Participant   int
	TrainSessions int
	Accuracy      float64
}

// Fig5 reproduces the Fig. 5 experiment: participants contribute widely
// varying session counts; a single DeepMood model is trained on the pooled
// training sessions and evaluated per participant.
func Fig5(scale Scale) ([]Fig5Point, error) {
	participants := 8
	maxSessions := 60
	epochs := 4
	if scale == Full {
		participants = 20
		maxSessions = 120
		epochs = 6
	}

	// Generate per-participant corpora with geometric-ish spread of session
	// counts (some contribute few, some many), mirroring the paper's spread
	// of 0..3000 sessions.
	rng := rand.New(rand.NewSource(401))
	var all []*data.Session
	counts := make([]int, participants)
	for u := 0; u < participants; u++ {
		n := 6 + int(float64(maxSessions-6)*float64(u)/float64(participants-1))
		counts[u] = n
		c, err := data.GenerateKeystrokeCorpus(data.KeystrokeConfig{
			NumUsers:        1,
			SessionsPerUser: n,
			MoodEffect:      0.9,
			Seed:            int64(500 + u),
		})
		if err != nil {
			return nil, err
		}
		for _, s := range c.Sessions {
			s.UserID = u
			all = append(all, s)
		}
	}

	train, test, err := data.SplitSessions(rng, all, 0.75)
	if err != nil {
		return nil, err
	}
	model, err := deepmood.New(deepmood.Config{
		Task:    deepmood.TaskMood,
		Classes: data.NumMoods,
		Hidden:  10,
		Fusion:  deepmood.FusionFC,
		Seed:    41,
	})
	if err != nil {
		return nil, err
	}
	if _, err := model.Train(deepmood.NormalizeAll(train), deepmood.TrainConfig{
		Epochs:    epochs,
		BatchSize: 8,
		Optimizer: opt.NewAdam(0.01),
		Rng:       rng,
	}); err != nil {
		return nil, err
	}

	trainCounts := make(map[int]int)
	for _, s := range train {
		trainCounts[s.UserID]++
	}

	points := make([]Fig5Point, 0, participants)
	testN := deepmood.NormalizeAll(test)
	for u := 0; u < participants; u++ {
		var preds, truth []int
		for _, s := range testN {
			if s.UserID != u {
				continue
			}
			p, err := model.Predict(s)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
			truth = append(truth, s.Mood)
		}
		if len(preds) == 0 {
			continue
		}
		acc, err := metrics.Accuracy(preds, truth)
		if err != nil {
			return nil, err
		}
		points = append(points, Fig5Point{Participant: u, TrainSessions: trainCounts[u], Accuracy: acc})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].TrainSessions < points[j].TrainSessions })
	return points, nil
}

func runFig5(w io.Writer, scale Scale) error {
	points, err := Fig5(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %15s %10s\n", "participant", "train sessions", "accuracy")
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %15d %10s\n", p.Participant, p.TrainSessions, pct(p.Accuracy))
	}
	// Trend summary: mean accuracy of the lower vs upper half by sessions.
	half := len(points) / 2
	var lo, hi float64
	for i, p := range points {
		if i < half {
			lo += p.Accuracy
		} else {
			hi += p.Accuracy
		}
	}
	if half > 0 {
		fmt.Fprintf(w, "\nmean accuracy, fewest-sessions half: %s; most-sessions half: %s\n",
			pct(lo/float64(half)), pct(hi/float64(len(points)-half)))
	}
	fmt.Fprintln(w, "\nPaper (Fig. 5): accuracy rises with contributed sessions; steadily >= 87%")
	fmt.Fprintln(w, "for participants with more than 400 valid typing sessions.")
	return nil
}

// fig6 summarizes the multi-view typing patterns of the most active users.
func fig6(scale Scale) ([]data.UserPatternSummary, error) {
	users := 5
	sessions := 30
	if scale == Full {
		sessions = 80
	}
	corpus, err := data.GenerateKeystrokeCorpus(data.KeystrokeConfig{
		NumUsers:        users,
		SessionsPerUser: sessions,
		MoodEffect:      0.3,
		Seed:            601,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int, users)
	for i := range ids {
		ids[i] = i
	}
	return data.SummarizeUserPatterns(corpus.Sessions, ids), nil
}

// runFig6 prints the multi-view pattern analysis of the most active users.
func runFig6(w io.Writer, scale Scale) error {
	sums, err := fig6(scale)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %9s %9s %9s %8s %8s %8s %8s %8s %8s\n",
		"user", "dur(ms)", "gap(ms)", "keys/sess", "backsp", "space", "autocorr", "corrXY", "corrXZ", "corrYZ")
	for _, s := range sums {
		fmt.Fprintf(w, "%-6d %9.1f %9.1f %9.1f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			s.UserID, s.MeanDuration*1000, s.MeanTimeSinceLast*1000, s.MeanKeysPerSess,
			s.SpecialPerSession[data.SpecialBackspace],
			s.SpecialPerSession[data.SpecialSpace],
			s.SpecialPerSession[data.SpecialAutoCorrect],
			s.AccelCorrXY, s.AccelCorrXZ, s.AccelCorrYZ)
	}
	fmt.Fprintln(w, "\nPaper (Fig. 6): each user shows a distinct signature across the alphanumeric,")
	fmt.Fprintln(w, "special-key and accelerometer views (e.g. user3 types faster with more keys;")
	fmt.Fprintln(w, "user4 favors auto-correct over backspace); acceleration separates users well.")
	return nil
}
