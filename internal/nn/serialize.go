package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ParamSource is anything exposing an ordered trainable-parameter list;
// every Layer is one, as are composite servables outside this package.
type ParamSource interface {
	Params() []*Param
}

// ErrWeightsFormat reports a blob without the v1 weights header (wrong magic
// or version), typically one written by an older build. Count, name and
// shape mismatches against a model are separate errors.
var ErrWeightsFormat = errors.New("nn: not a v1 weights blob")

// The weights format, version 1. Architectures are code, not data: only the
// values travel, and names plus shapes are stored so a blob from a
// mismatched architecture fails loudly instead of loading. All integers and
// values are little-endian:
//
//	"MDLW"                 4-byte magic
//	u8  version            1
//	u32 count              number of params
//	count times:
//	  u16 name length, name bytes
//	  u32 rows, u32 cols
//	  rows*cols float64    IEEE-754 bits, row-major
//
// Nothing follows the last param.
const (
	weightsMagic   = "MDLW"
	weightsVersion = 1
	weightsHeader  = len(weightsMagic) + 1 + 4
)

// EncodeWeights returns a model's parameter values (not gradients) in the
// weights format above, the unit of exchange for model registries and
// checkpoints. The blob is built in one exact-size allocation.
func EncodeWeights(model ParamSource) ([]byte, error) {
	params := model.Params()
	n := weightsHeader
	for _, p := range params {
		if len(p.Name) > math.MaxUint16 || uint64(p.Value.Rows()) > math.MaxUint32 || uint64(p.Value.Cols()) > math.MaxUint32 {
			return nil, fmt.Errorf("encode weights: param %.32q (%dx%d) overflows the format", p.Name, p.Value.Rows(), p.Value.Cols())
		}
		n += 2 + len(p.Name) + 8 + 8*p.Value.Size()
	}
	le := binary.LittleEndian
	b := make([]byte, 0, n)
	b = append(b, weightsMagic...)
	b = append(b, weightsVersion)
	b = le.AppendUint32(b, uint32(len(params)))
	for _, p := range params {
		b = le.AppendUint16(b, uint16(len(p.Name)))
		b = append(b, p.Name...)
		b = le.AppendUint32(b, uint32(p.Value.Rows()))
		b = le.AppendUint32(b, uint32(p.Value.Cols()))
		for _, v := range p.Value.Data() {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// DecodeWeights loads an EncodeWeights blob into the model's parameters in
// place. The whole blob — header, every name and shape against
// model.Params(), and the exact length — is checked before any value is
// written, so a rejected blob leaves the model untouched. Decoding allocates
// nothing itself, whatever lengths the blob claims.
func DecodeWeights(model ParamSource, b []byte) error {
	params := model.Params()
	if err := walkWeights(params, b, false); err != nil {
		return fmt.Errorf("decode weights: %w", err)
	}
	return walkWeights(params, b, true)
}

// walkWeights checks b against params and, with write set, copies the
// values into the params' storage. It reads a name or shape only once b
// holds the model's own name and shape sizes, so every read is in bounds
// whatever b's length fields claim; values are written only on the second
// pass, after the first has checked the exact length.
func walkWeights(params []*Param, b []byte, write bool) error {
	le := binary.LittleEndian
	const ver, count = len(weightsMagic), len(weightsMagic) + 1 // header field offsets
	switch {
	case len(b) < len(weightsMagic) || string(b[:len(weightsMagic)]) != weightsMagic:
		return fmt.Errorf("%w: missing %q magic", ErrWeightsFormat, weightsMagic)
	case len(b) < weightsHeader:
		return fmt.Errorf("header truncated at %d bytes", len(b))
	case b[ver] != weightsVersion:
		return fmt.Errorf("%w: version %d, want %d", ErrWeightsFormat, b[ver], weightsVersion)
	case uint64(le.Uint32(b[count:])) != uint64(len(params)):
		return fmt.Errorf("%d stored params, model has %d", le.Uint32(b[count:]), len(params))
	}
	off := weightsHeader
	for i, p := range params {
		if len(b)-off < 2+len(p.Name)+8 {
			return fmt.Errorf("param %d: truncated", i)
		}
		name := b[off+2 : min(len(b), off+2+int(le.Uint16(b[off:])))]
		if string(name) != p.Name {
			return fmt.Errorf("param %d is %q, model expects %q", i, name, p.Name)
		}
		off += 2 + len(name)
		rows, cols := le.Uint32(b[off:]), le.Uint32(b[off+4:])
		if uint64(rows) != uint64(p.Value.Rows()) || uint64(cols) != uint64(p.Value.Cols()) {
			return fmt.Errorf("param %q is %dx%d, model has %dx%d", p.Name, rows, cols, p.Value.Rows(), p.Value.Cols())
		}
		off += 8
		data := p.Value.Data()
		for j := 0; write && j < len(data); j++ {
			data[j] = math.Float64frombits(le.Uint64(b[off+8*j:]))
		}
		off += 8 * len(data)
	}
	if off != len(b) {
		return fmt.Errorf("blob is %d bytes, model needs %d", len(b), off)
	}
	return nil
}
