package data

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testCorpus(t *testing.T, users, sessions int, moodEffect float64) *Corpus {
	t.Helper()
	c, err := GenerateKeystrokeCorpus(KeystrokeConfig{
		NumUsers:        users,
		SessionsPerUser: sessions,
		MoodEffect:      moodEffect,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateKeystrokeCorpusShape(t *testing.T) {
	c := testCorpus(t, 5, 10, 0.8)
	if len(c.Sessions) != 50 {
		t.Fatalf("got %d sessions, want 50", len(c.Sessions))
	}
	for _, s := range c.Sessions {
		if s.Alphanumeric.Cols() != AlphanumericDim {
			t.Fatalf("alphanumeric cols %d", s.Alphanumeric.Cols())
		}
		if s.Special.Cols() != SpecialDim {
			t.Fatalf("special cols %d", s.Special.Cols())
		}
		if s.Accelerometer.Cols() != AccelerometerDim {
			t.Fatalf("accelerometer cols %d", s.Accelerometer.Cols())
		}
		if s.Alphanumeric.Rows() == 0 || s.Special.Rows() == 0 || s.Accelerometer.Rows() == 0 {
			t.Fatal("empty view generated")
		}
		if s.UserID < 0 || s.UserID >= 5 {
			t.Fatalf("bad user id %d", s.UserID)
		}
		if s.Mood != MoodEuthymic && s.Mood != MoodDepressed {
			t.Fatalf("bad mood %d", s.Mood)
		}
	}
}

func TestCorpusDeterminism(t *testing.T) {
	a := testCorpus(t, 3, 5, 0.5)
	b := testCorpus(t, 3, 5, 0.5)
	for i := range a.Sessions {
		if !a.Sessions[i].Alphanumeric.Equal(b.Sessions[i].Alphanumeric, 0) {
			t.Fatal("same seed produced different corpora")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []KeystrokeConfig{
		{NumUsers: 0, SessionsPerUser: 5},
		{NumUsers: 5, SessionsPerUser: 0},
		{NumUsers: 5, SessionsPerUser: 5, MoodEffect: 2},
		{NumUsers: 5, SessionsPerUser: 5, depressedFraction: -0.1},
	}
	for _, cfg := range bad {
		if _, err := GenerateKeystrokeCorpus(cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("config %+v: want ErrConfig, got %v", cfg, err)
		}
	}
}

func TestMoodShiftsTypingDynamics(t *testing.T) {
	// With a strong mood effect, depressed sessions must on average have
	// longer inter-key intervals and more backspaces — the signal DeepMood
	// learns from.
	c := testCorpus(t, 8, 60, 1.0)
	var depInterKey, eutInterKey, depBack, eutBack float64
	var nDep, nEut int
	for _, s := range c.Sessions {
		var interKey float64
		for i := 0; i < s.Alphanumeric.Rows(); i++ {
			interKey += s.Alphanumeric.At(i, 1)
		}
		interKey /= float64(s.Alphanumeric.Rows())
		backs := float64(SpecialKeyCounts(s)[SpecialBackspace])
		if s.Mood == MoodDepressed {
			depInterKey += interKey
			depBack += backs
			nDep++
		} else {
			eutInterKey += interKey
			eutBack += backs
			nEut++
		}
	}
	if nDep == 0 || nEut == 0 {
		t.Fatal("corpus missing a mood class")
	}
	if depInterKey/float64(nDep) <= eutInterKey/float64(nEut) {
		t.Fatal("depressed sessions should have longer inter-key intervals")
	}
	if depBack/float64(nDep) <= eutBack/float64(nEut) {
		t.Fatal("depressed sessions should have more backspaces")
	}
}

func TestSessionFeaturesDim(t *testing.T) {
	c := testCorpus(t, 2, 3, 0.5)
	for _, s := range c.Sessions {
		f := SessionFeatures(s)
		if len(f) != SessionFeatureDim {
			t.Fatalf("feature dim %d, want %d", len(f), SessionFeatureDim)
		}
		for i, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d is %v", i, v)
			}
		}
	}
}

func TestFeatureMatrixLabels(t *testing.T) {
	c := testCorpus(t, 3, 4, 0.5)
	x, byUser, err := FeatureMatrix(c.Sessions, true)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 12 || x.Cols() != SessionFeatureDim {
		t.Fatalf("X is %dx%d", x.Rows(), x.Cols())
	}
	_, byMood, err := FeatureMatrix(c.Sessions, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range byUser {
		if byUser[i] != c.Sessions[i].UserID || byMood[i] != c.Sessions[i].Mood {
			t.Fatal("labels do not match sessions")
		}
	}
	if _, _, err := FeatureMatrix(nil, true); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for empty sessions, got %v", err)
	}
}

func TestScalerStandardizes(t *testing.T) {
	c := testCorpus(t, 4, 20, 0.5)
	x, _, err := FeatureMatrix(c.Sessions, true)
	if err != nil {
		t.Fatal(err)
	}
	s := FitScaler(x)
	z := s.Transform(x)
	for j := 0; j < z.Cols(); j++ {
		mean, std := columnMeanStd(z, j)
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v after scaling", j, mean)
		}
		if std > 1e-9 && math.Abs(std-1) > 1e-9 {
			t.Fatalf("column %d std %v after scaling", j, std)
		}
	}
}

func TestSplitSessionsStratified(t *testing.T) {
	c := testCorpus(t, 5, 10, 0.5)
	rng := rand.New(rand.NewSource(1))
	train, test, err := SplitSessions(rng, c.Sessions, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != len(c.Sessions) {
		t.Fatalf("split lost sessions: %d + %d != %d", len(train), len(test), len(c.Sessions))
	}
	trainUsers := map[int]bool{}
	testUsers := map[int]bool{}
	for _, s := range train {
		trainUsers[s.UserID] = true
	}
	for _, s := range test {
		testUsers[s.UserID] = true
	}
	for u := 0; u < 5; u++ {
		if !trainUsers[u] || !testUsers[u] {
			t.Fatalf("user %d missing from a split", u)
		}
	}
	if _, _, err := SplitSessions(rng, c.Sessions, 1.5); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestFilterUsers(t *testing.T) {
	c := testCorpus(t, 6, 2, 0.5)
	got := FilterUsers(c.Sessions, 3)
	if len(got) != 6 {
		t.Fatalf("got %d sessions, want 6", len(got))
	}
	for _, s := range got {
		if s.UserID >= 3 {
			t.Fatalf("user %d leaked through filter", s.UserID)
		}
	}
}

func TestNormalizeSessionViews(t *testing.T) {
	c := testCorpus(t, 1, 1, 0)
	orig := c.Sessions[0]
	norm := NormalizeSessionViews(orig)
	// Accelerometer magnitudes should be ~1 (gravity units).
	var mag float64
	for i := 0; i < norm.Accelerometer.Rows(); i++ {
		row := norm.Accelerometer.Row(i)
		mag += math.Sqrt(row[0]*row[0] + row[1]*row[1] + row[2]*row[2])
	}
	mag /= float64(norm.Accelerometer.Rows())
	if mag < 0.5 || mag > 2 {
		t.Fatalf("normalized accel magnitude %v, want ~1", mag)
	}
	// Original must be untouched.
	if norm.Alphanumeric.Equal(orig.Alphanumeric, 0) {
		t.Fatal("normalization did not change a copy (or changed nothing)")
	}
}

func TestSummarizeUserPatterns(t *testing.T) {
	c := testCorpus(t, 5, 20, 0.5)
	sums := SummarizeUserPatterns(c.Sessions, []int{0, 1, 2, 3, 4})
	if len(sums) != 5 {
		t.Fatalf("got %d summaries", len(sums))
	}
	// Users must have distinct typing signatures: check mean durations differ.
	for i := 0; i < len(sums); i++ {
		if sums[i].Sessions != 20 {
			t.Fatalf("user %d has %d sessions in summary", i, sums[i].Sessions)
		}
		for j := i + 1; j < len(sums); j++ {
			if math.Abs(sums[i].MeanDuration-sums[j].MeanDuration) < 1e-6 &&
				math.Abs(sums[i].MeanKeysPerSess-sums[j].MeanKeysPerSess) < 1e-6 {
				t.Fatalf("users %d and %d have identical signatures", i, j)
			}
		}
	}
}

func TestGenerateFedBench(t *testing.T) {
	fb, err := GenerateFedBench(FedBenchConfig{Samples: 200, Classes: 4, Dim: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fb.X.Rows() != 200 || fb.X.Cols() != 10 || len(fb.Labels) != 200 {
		t.Fatal("wrong benchmark shape")
	}
	counts := map[int]int{}
	for _, l := range fb.Labels {
		counts[l]++
	}
	if len(counts) != 4 {
		t.Fatalf("got %d classes, want 4", len(counts))
	}
	if _, err := GenerateFedBench(FedBenchConfig{Samples: 0, Classes: 2, Dim: 1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestFedBenchSplit(t *testing.T) {
	fb, _ := GenerateFedBench(FedBenchConfig{Samples: 100, Classes: 2, Dim: 4, Seed: 2})
	trX, trY, teX, teY, err := fb.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if trX.Rows() != 80 || teX.Rows() != 20 || len(trY) != 80 || len(teY) != 20 {
		t.Fatal("wrong split sizes")
	}
}

func TestShardIID(t *testing.T) {
	fb, _ := GenerateFedBench(FedBenchConfig{Samples: 300, Classes: 5, Dim: 4, Seed: 3})
	rng := rand.New(rand.NewSource(1))
	shards, err := ShardIID(rng, fb.X, fb.Labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range shards {
		total += s.Size()
		// IID shards of 30 samples over 5 classes should see most classes.
		if s.DistinctLabels() < 3 {
			t.Fatalf("IID shard saw only %d classes", s.DistinctLabels())
		}
	}
	if total != 300 {
		t.Fatalf("shards hold %d samples, want 300", total)
	}
}

func TestShardNonIID(t *testing.T) {
	fb, _ := GenerateFedBench(FedBenchConfig{Samples: 500, Classes: 10, Dim: 4, Seed: 4})
	rng := rand.New(rand.NewSource(1))
	shards, err := ShardNonIID(rng, fb.X, fb.Labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	maxLabels := 0
	for _, s := range shards {
		if s.DistinctLabels() > maxLabels {
			maxLabels = s.DistinctLabels()
		}
	}
	// Each client gets 2 contiguous label shards -> at most ~4 distinct labels.
	if maxLabels > 4 {
		t.Fatalf("non-IID shard saw %d classes; sharding is not skewed", maxLabels)
	}
	if _, err := ShardNonIID(rng, fb.X, fb.Labels, 300); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig for too many clients, got %v", err)
	}
}

func TestPoissonProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := rng.Float64() * 5
		n := 200
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / float64(n)
		// Loose CLT bound: mean within 5 sigma of lambda.
		return math.Abs(mean-lambda) < 5*math.Sqrt(lambda/float64(n))+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// DistinctLabels returns the number of distinct labels in the shard, used by
// tests to verify the non-IID property.
func (c *ClientShard) DistinctLabels() int {
	seen := make(map[int]struct{})
	for _, l := range c.Labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
