package compress

import (
	"fmt"

	"mobiledl/internal/nn"
	"mobiledl/internal/tensor"
)

// StageSizes reports the encoded model size (bytes, weights only) after each
// Deep Compression stage.
type StageSizes struct {
	DenseBytes     int // raw float64 weights
	PrunedBytes    int // CSR encoding after pruning
	QuantizedBytes int // codebook + fixed-width codes for CSR values
	HuffmanBytes   int // codebook + huffman-coded codes
}

// Ratio returns original-size / final-size.
func (s StageSizes) Ratio() float64 {
	if s.HuffmanBytes == 0 {
		return 0
	}
	return float64(s.DenseBytes) / float64(s.HuffmanBytes)
}

// PipelineConfig configures the three-stage Deep Compression pipeline [28]:
// prune, quantize (weight sharing), Huffman-code.
type PipelineConfig struct {
	Sparsity float64
	Bits     int
}

// PipelineResult is the outcome of compressing one model.
type PipelineResult struct {
	Sizes StageSizes
	// Model is the decompressed (dense-reconstructed) model for accuracy
	// evaluation; weights carry both pruning zeros and quantization error.
	Model *nn.Sequential
}

// RunPipeline compresses every Dense layer of the model through
// prune -> k-means quantize -> Huffman, measuring real encoded bytes at
// each stage, and returns the reconstructed model.
func RunPipeline(model *nn.Sequential, cfg PipelineConfig) (*PipelineResult, error) {
	if cfg.Bits <= 0 {
		return nil, fmt.Errorf("%w: bits=%d", ErrCompress, cfg.Bits)
	}
	var sizes StageSizes
	layers := model.Layers()
	newLayers := make([]nn.Layer, len(layers))
	compressedAny := false

	for i, layer := range layers {
		d, ok := layer.(*nn.Dense)
		if !ok {
			newLayers[i] = layer
			continue
		}
		compressedAny = true
		w := d.Weights().Value.Clone()
		sizes.DenseBytes += DenseBytes(w)

		// Stage 1: prune.
		if _, err := PruneMatrix(w, cfg.Sparsity); err != nil {
			return nil, err
		}
		csr := ToCSR(w)
		enc, err := csr.Encode()
		if err != nil {
			return nil, err
		}
		sizes.PrunedBytes += len(enc)

		// Stage 2: quantize the surviving weights with shared centroids.
		q, err := QuantizeKMeans(w, cfg.Bits)
		if err != nil {
			return nil, err
		}
		// Quantized CSR cost. Following [28], column indices are stored as
		// relative offsets (1 byte each; gaps beyond 255 are rare at these
		// sizes and would cost a filler code), row lengths as uint16, and
		// codes at ceil(log2(levels)) bits for the nnz entries. The shared
		// codebook is float64.
		structureBytes := csr.NNZ() + 2*(csr.Rows+1)
		codebookBytes := 8 * len(q.Codebook)
		codeBits := bitsFor(len(q.Codebook))
		sizes.QuantizedBytes += structureBytes + codebookBytes + (csr.NNZ()*codeBits+7)/8

		// Stage 3: Huffman-code the nnz code indices.
		nzCodes := make([]uint16, 0, csr.NNZ())
		for idx, c := range q.Codes {
			if w.Data()[idx] != 0 {
				nzCodes = append(nzCodes, c)
			}
		}
		// Stage 3 falls back to the fixed-width encoding when the Huffman
		// stream plus its code-length table would be larger (small layers
		// with near-uniform code usage), as practical encoders do.
		fixedBytes := (csr.NNZ()*codeBits + 7) / 8
		huffBytes := fixedBytes
		if len(nzCodes) > 0 {
			freqs := make(map[uint16]int)
			for _, c := range nzCodes {
				freqs[c]++
			}
			hc, err := NewHuffmanCode(freqs)
			if err != nil {
				return nil, err
			}
			encBits, _, err := hc.Encode(nzCodes)
			if err != nil {
				return nil, err
			}
			if cost := len(encBits) + 2*len(hc.Lengths); cost < fixedBytes {
				huffBytes = cost
			}
		}
		sizes.HuffmanBytes += structureBytes + codebookBytes + huffBytes

		// Reconstruct a dense layer with the compressed weights.
		rec, err := q.Dequantize()
		if err != nil {
			return nil, err
		}
		// Preserve exact zeros from pruning.
		rd, wd := rec.Data(), w.Data()
		for j := range rd {
			if wd[j] == 0 {
				rd[j] = 0
			}
		}
		nl, err := nn.NewDenseFrom(rec, d.Bias().Value.Clone())
		if err != nil {
			return nil, err
		}
		newLayers[i] = nl
	}
	if !compressedAny {
		return nil, fmt.Errorf("%w: model has no dense layers", ErrCompress)
	}
	return &PipelineResult{Sizes: sizes, Model: nn.NewSequential(newLayers...)}, nil
}

func bitsFor(levels int) int {
	bits := 0
	for 1<<bits < levels {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

// CopyModel deep-copies a Sequential of Dense and activation layers so
// compression experiments can keep the original for comparison. Layers
// without parameters are shared (they are stateless across inference).
func CopyModel(model *nn.Sequential) (*nn.Sequential, error) {
	layers := model.Layers()
	out := make([]nn.Layer, len(layers))
	for i, l := range layers {
		if d, ok := l.(*nn.Dense); ok {
			nl, err := nn.NewDenseFrom(d.Weights().Value.Clone(), d.Bias().Value.Clone())
			if err != nil {
				return nil, err
			}
			out[i] = nl
			continue
		}
		out[i] = l
	}
	return nn.NewSequential(out...), nil
}

// EvalAccuracy scores a model's classification accuracy.
func EvalAccuracy(model *nn.Sequential, x *tensor.Matrix, labels []int) (float64, error) {
	preds, err := model.Predict(x)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}
