package deepmood

import (
	"errors"
	"math/rand"
	"testing"

	"mobiledl/internal/data"
	"mobiledl/internal/metrics"
	"mobiledl/internal/opt"
)

func corpus(t *testing.T, users, sessions int, moodEffect float64, seed int64) *data.Corpus {
	t.Helper()
	c, err := data.GenerateKeystrokeCorpus(data.KeystrokeConfig{
		NumUsers:        users,
		SessionsPerUser: sessions,
		MoodEffect:      moodEffect,
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Task: 0, Classes: 2, Hidden: 4, Fusion: FusionFC},
		{Task: TaskMood, Classes: 1, Hidden: 4, Fusion: FusionFC},
		{Task: TaskMood, Classes: 2, Hidden: 0, Fusion: FusionFC},
		{Task: TaskMood, Classes: 2, Hidden: 4, Fusion: "bogus"},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %+v: want ErrConfig, got %v", cfg, err)
		}
	}
}

func TestForwardShapes(t *testing.T) {
	c := corpus(t, 2, 2, 0.5, 1)
	for _, fus := range []FusionKind{FusionFC, FusionFM, FusionMVM} {
		m, err := New(Config{Task: TaskMood, Classes: 2, Hidden: 6, Fusion: fus, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := data.NormalizeSessionViews(c.Sessions[0])
		out, err := m.Forward(s)
		if err != nil {
			t.Fatalf("%s: %v", fus, err)
		}
		if out.Rows() != 1 || out.Cols() != 2 {
			t.Fatalf("%s output %dx%d", fus, out.Rows(), out.Cols())
		}
	}
}

func TestLabelSelection(t *testing.T) {
	s := &data.Session{UserID: 3, Mood: 1}
	mMood, _ := New(Config{Task: TaskMood, Classes: 2, Hidden: 2, Fusion: FusionFC, Seed: 1})
	mUser, _ := New(Config{Task: TaskUser, Classes: 5, Hidden: 2, Fusion: FusionFC, Seed: 1})
	if mMood.Label(s) != 1 || mUser.Label(s) != 3 {
		t.Fatal("label extraction wrong")
	}
}

func TestTrainReducesLossAndLearnsMood(t *testing.T) {
	// End-to-end: DeepMood must learn the synthetic mood signal well above
	// chance on held-out sessions.
	c := corpus(t, 4, 30, 1.0, 7)
	rng := rand.New(rand.NewSource(7))
	train, test, err := data.SplitSessions(rng, c.Sessions, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	trainN := NormalizeAll(train)
	testN := NormalizeAll(test)

	m, err := New(Config{Task: TaskMood, Classes: 2, Hidden: 10, Fusion: FusionFC, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := m.Train(trainN, TrainConfig{
		Epochs:    10,
		BatchSize: 8,
		Optimizer: opt.NewAdam(0.01),
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	preds, err := m.PredictAll(testN)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, len(testN))
	for i, s := range testN {
		truth[i] = s.Mood
	}
	acc, err := metrics.Accuracy(preds, truth)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.65 {
		t.Fatalf("mood accuracy %v on held-out sessions, want >= 0.65", acc)
	}
}

func TestTrainConfigValidation(t *testing.T) {
	m, _ := New(Config{Task: TaskMood, Classes: 2, Hidden: 2, Fusion: FusionFC, Seed: 1})
	if _, err := m.Train(nil, TrainConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestNormalizeAllPreservesLabels(t *testing.T) {
	c := corpus(t, 3, 2, 0.5, 2)
	norm := NormalizeAll(c.Sessions)
	for i, s := range norm {
		if s.UserID != c.Sessions[i].UserID || s.Mood != c.Sessions[i].Mood {
			t.Fatal("normalization changed labels")
		}
	}
}
