// Package core is the high-level facade of the mobiledl library: the entry
// points a downstream application would use to (1) train mobile-data models
// collaboratively, privately or centrally, (2) shrink them for on-device
// deployment, (3) decide where to run inference, and (4) apply the two
// reference applications, DeepMood and DEEPSERVICE.
//
// Everything here composes the lower-level packages (nn, federated, privacy,
// compress, mobile, split, deepmood, deepservice); nothing is re-implemented.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"mobiledl/internal/compress"
	"mobiledl/internal/data"
	"mobiledl/internal/deepmood"
	"mobiledl/internal/deepservice"
	"mobiledl/internal/federated"
	"mobiledl/internal/metrics"
	"mobiledl/internal/mobile"
	"mobiledl/internal/nn"
	"mobiledl/internal/opt"
	"mobiledl/internal/privacy"
	"mobiledl/internal/tensor"
)

// ErrConfig reports an invalid facade configuration.
var ErrConfig = errors.New("core: invalid configuration")

// MLPSpec describes a plain feed-forward classifier.
type MLPSpec struct {
	In      int
	Hidden  []int
	Classes int
	Seed    int64
}

// NewMLP builds a ReLU MLP from the spec. The returned factory creates
// further identically initialized copies (required by federated training).
func NewMLP(spec MLPSpec) (*nn.Sequential, federated.ModelFactory, error) {
	if spec.In <= 0 || spec.Classes < 2 {
		return nil, nil, fmt.Errorf("%w: MLP in=%d classes=%d", ErrConfig, spec.In, spec.Classes)
	}
	factory := func() (*nn.Sequential, error) {
		rng := rand.New(rand.NewSource(spec.Seed))
		var layers []nn.Layer
		prev := spec.In
		for _, h := range spec.Hidden {
			if h <= 0 {
				return nil, fmt.Errorf("%w: hidden size %d", ErrConfig, h)
			}
			layers = append(layers, nn.NewDense(rng, prev, h), nn.NewReLU())
			prev = h
		}
		layers = append(layers, nn.NewDense(rng, prev, spec.Classes))
		return nn.NewSequential(layers...), nil
	}
	model, err := factory()
	if err != nil {
		return nil, nil, err
	}
	return model, factory, nil
}

// TrainCentralized fits a model on a single dataset with Adam — the plain,
// non-distributed baseline every other scheme is compared against.
func TrainCentralized(model *nn.Sequential, x *tensor.Matrix, labels []int, classes, epochs int, seed int64) error {
	y, err := nn.OneHot(labels, classes)
	if err != nil {
		return err
	}
	_, err = nn.Train(model, x, y, nn.TrainConfig{
		Epochs:    epochs,
		BatchSize: 32,
		Optimizer: opt.NewAdam(0.01),
		Loss:      nn.NewSoftmaxCrossEntropy(),
		Rng:       rand.New(rand.NewSource(seed)),
	})
	return err
}

// Federate runs federated averaging over client shards; see package
// federated for the full configuration surface.
func Federate(factory federated.ModelFactory, shards []*data.ClientShard, classes int, cfg federated.FedAvgConfig) (*nn.Sequential, []federated.RoundStats, error) {
	return federated.RunFedAvg(factory, shards, classes, cfg)
}

// FederatePrivately runs user-level DP federated averaging; see package
// privacy for the mechanism details.
func FederatePrivately(factory federated.ModelFactory, shards []*data.ClientShard, classes int, cfg privacy.DPFedAvgConfig) (*privacy.DPFedAvgResult, error) {
	return privacy.RunDPFedAvg(factory, shards, classes, cfg)
}

// CompressForMobile runs the Deep Compression pipeline and reports the
// realized on-the-wire size reduction.
func CompressForMobile(model *nn.Sequential, sparsity float64, bits int) (*compress.PipelineResult, error) {
	return compress.RunPipeline(model, compress.PipelineConfig{Sparsity: sparsity, Bits: bits})
}

// PlanInference compares local, cloud and split placement for the given
// model and input sizes and returns plans sorted best-first.
func PlanInference(device mobile.Device, net mobile.Network, model *nn.Sequential, inputBytes, payloadBytes int64) []mobile.PlanCost {
	w := mobile.Workload{
		TotalMACs:    mobile.ModelMACs(model),
		LocalMACs:    mobile.ModelMACs(model) * 0.05,
		ModelBytes:   mobile.ModelBytes(model),
		InputBytes:   inputBytes,
		PayloadBytes: payloadBytes,
		OutputBytes:  256,
	}
	return mobile.ComparePlacements(device, mobile.CloudServer(), net, w)
}

// MoodModel bundles a trained DeepMood model with its evaluation helpers.
type MoodModel struct {
	Model *deepmood.Model
}

// TrainMoodModel trains DeepMood on raw sessions (normalization handled
// internally) and returns the wrapped model.
func TrainMoodModel(sessions []*data.Session, fusionKind deepmood.FusionKind, epochs int, seed int64) (*MoodModel, error) {
	m, err := deepmood.New(deepmood.Config{
		Task:    deepmood.TaskMood,
		Classes: data.NumMoods,
		Hidden:  10,
		Fusion:  fusionKind,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := m.Train(deepmood.NormalizeAll(sessions), deepmood.TrainConfig{
		Epochs:    epochs,
		BatchSize: 8,
		Optimizer: opt.NewAdam(0.01),
		Rng:       rand.New(rand.NewSource(seed)),
	}); err != nil {
		return nil, err
	}
	return &MoodModel{Model: m}, nil
}

// Evaluate scores mood prediction on raw sessions.
func (m *MoodModel) Evaluate(sessions []*data.Session) (metrics.Report, error) {
	norm := deepmood.NormalizeAll(sessions)
	preds, err := m.Model.PredictAll(norm)
	if err != nil {
		return metrics.Report{}, err
	}
	truth := make([]int, len(norm))
	for i, s := range norm {
		truth[i] = s.Mood
	}
	return metrics.Evaluate(preds, truth, data.NumMoods)
}

// TrainIdentifier trains a DEEPSERVICE N-way user identifier on raw sessions.
func TrainIdentifier(sessions []*data.Session, numUsers, epochs int, seed int64) (*deepservice.Identifier, error) {
	id, err := deepservice.New(deepservice.Config{
		NumUsers: numUsers,
		Hidden:   10,
		Fusion:   deepmood.FusionFC,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := id.Train(deepmood.NormalizeAll(sessions), deepmood.TrainConfig{
		Epochs:    epochs,
		BatchSize: 8,
		Optimizer: opt.NewAdam(0.01),
		Rng:       rand.New(rand.NewSource(seed)),
	}); err != nil {
		return nil, err
	}
	return id, nil
}
