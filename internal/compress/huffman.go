package compress

import (
	"container/heap"
	"fmt"
	"sort"
)

// HuffmanCode is a canonical Huffman code over uint16 symbols, the final
// lossless stage of the Deep Compression pipeline [28].
type HuffmanCode struct {
	// Lengths maps each symbol to its code length in bits.
	Lengths map[uint16]int
	codes   map[uint16]code
}

type code struct {
	bits uint64
	n    int
}

type huffNode struct {
	freq        int
	symbol      uint16
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int      { return len(h) }
func (h huffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].symbol < h[j].symbol // deterministic tie-break
}
func (h *huffHeap) Push(x any) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// NewHuffmanCode builds a canonical Huffman code from symbol frequencies.
func NewHuffmanCode(freqs map[uint16]int) (*HuffmanCode, error) {
	if len(freqs) == 0 {
		return nil, fmt.Errorf("%w: empty frequency table", ErrCompress)
	}
	h := &huffHeap{}
	for sym, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("%w: non-positive frequency %d for symbol %d", ErrCompress, f, sym)
		}
		heap.Push(h, &huffNode{freq: f, symbol: sym})
	}
	heap.Init(h)
	if h.Len() == 1 {
		// Single-symbol degenerate case: one-bit code.
		node := heap.Pop(h).(*huffNode)
		hc := &HuffmanCode{
			Lengths: map[uint16]int{node.symbol: 1},
			codes:   map[uint16]code{node.symbol: {bits: 0, n: 1}},
		}
		return hc, nil
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, &huffNode{freq: a.freq + b.freq, left: a, right: b, symbol: min16(a.symbol, b.symbol)})
	}
	root := heap.Pop(h).(*huffNode)

	lengths := make(map[uint16]int, len(freqs))
	assignLengths(root, 0, lengths)

	// Canonicalize: sort by (length, symbol) and assign sequential codes.
	hc := &HuffmanCode{Lengths: lengths, codes: make(map[uint16]code, len(lengths))}
	type symLen struct {
		sym uint16
		n   int
	}
	ordered := make([]symLen, 0, len(lengths))
	for s, n := range lengths {
		ordered = append(ordered, symLen{s, n})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].n != ordered[j].n {
			return ordered[i].n < ordered[j].n
		}
		return ordered[i].sym < ordered[j].sym
	})
	var next uint64
	prevLen := 0
	for _, sl := range ordered {
		next <<= uint(sl.n - prevLen)
		hc.codes[sl.sym] = code{bits: next, n: sl.n}
		next++
		prevLen = sl.n
	}
	return hc, nil
}

func min16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

func assignLengths(n *huffNode, depth int, out map[uint16]int) {
	if n.left == nil && n.right == nil {
		if depth == 0 {
			depth = 1
		}
		out[n.symbol] = depth
		return
	}
	assignLengths(n.left, depth+1, out)
	assignLengths(n.right, depth+1, out)
}

// Encode packs symbols into a bitstream, returning the bytes and total bits.
func (hc *HuffmanCode) Encode(symbols []uint16) ([]byte, int, error) {
	var out []byte
	var cur byte
	var curBits int
	total := 0
	for _, s := range symbols {
		c, ok := hc.codes[s]
		if !ok {
			return nil, 0, fmt.Errorf("%w: symbol %d not in code", ErrCompress, s)
		}
		for b := c.n - 1; b >= 0; b-- {
			bit := byte((c.bits >> uint(b)) & 1)
			cur = cur<<1 | bit
			curBits++
			total++
			if curBits == 8 {
				out = append(out, cur)
				cur, curBits = 0, 0
			}
		}
	}
	if curBits > 0 {
		cur <<= uint(8 - curBits)
		out = append(out, cur)
	}
	return out, total, nil
}
