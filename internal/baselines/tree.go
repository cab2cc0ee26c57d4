package baselines

import (
	"math/rand"
	"sort"

	"mobiledl/internal/tensor"
)

// DecisionTree is a CART classifier using Gini impurity and exact greedy
// splits over sorted feature values.
type DecisionTree struct {
	MaxDepth       int
	MinSamplesLeaf int
	// MaxFeatures limits the features considered per split (0 = all);
	// the random forest sets it to sqrt(features).
	MaxFeatures int
	Seed        int64

	root    *treeNode
	classes int
}

var _ Classifier = (*DecisionTree)(nil)

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// leaf prediction: class index and class distribution
	leaf  bool
	class int
	dist  []float64
}

// NewDecisionTree returns a CART tree with defaults matching common library
// settings (unbounded-ish depth, leaf size 2).
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxDepth: 12, MinSamplesLeaf: 2, Seed: 1}
}

// Name implements Classifier.
func (m *DecisionTree) Name() string { return "Decision Tree" }

// Fit implements Classifier.
func (m *DecisionTree) Fit(x *tensor.Matrix, labels []int, classes int) error {
	if err := validateFit(x, labels, classes); err != nil {
		return err
	}
	m.classes = classes
	idx := make([]int, x.Rows())
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(m.Seed))
	m.root = m.grow(rng, x, labels, idx, 0)
	return nil
}

func (m *DecisionTree) grow(rng *rand.Rand, x *tensor.Matrix, labels, idx []int, depth int) *treeNode {
	dist := make([]float64, m.classes)
	for _, i := range idx {
		dist[labels[i]]++
	}
	majority, pure := majorityClass(dist, len(idx))
	if pure || depth >= m.MaxDepth || len(idx) < 2*m.MinSamplesLeaf {
		return &treeNode{leaf: true, class: majority, dist: normalize(dist, len(idx))}
	}

	feature, threshold, gain := m.bestSplit(rng, x, labels, idx)
	if gain <= 1e-12 {
		return &treeNode{leaf: true, class: majority, dist: normalize(dist, len(idx))}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x.At(i, feature) <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < m.MinSamplesLeaf || len(rightIdx) < m.MinSamplesLeaf {
		return &treeNode{leaf: true, class: majority, dist: normalize(dist, len(idx))}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      m.grow(rng, x, labels, leftIdx, depth+1),
		right:     m.grow(rng, x, labels, rightIdx, depth+1),
	}
}

// bestSplit scans candidate features for the split maximizing Gini gain.
func (m *DecisionTree) bestSplit(rng *rand.Rand, x *tensor.Matrix, labels, idx []int) (feature int, threshold, gain float64) {
	nFeat := x.Cols()
	features := make([]int, nFeat)
	for i := range features {
		features[i] = i
	}
	if m.MaxFeatures > 0 && m.MaxFeatures < nFeat {
		rng.Shuffle(nFeat, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:m.MaxFeatures]
	}

	parentDist := make([]float64, m.classes)
	for _, i := range idx {
		parentDist[labels[i]]++
	}
	n := float64(len(idx))
	parentGini := gini(parentDist, n)

	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0

	order := make([]int, len(idx))
	leftDist := make([]float64, m.classes)
	for _, f := range features {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x.At(order[a], f) < x.At(order[b], f) })
		for c := range leftDist {
			leftDist[c] = 0
		}
		rightDist := make([]float64, m.classes)
		copy(rightDist, parentDist)
		for pos := 0; pos < len(order)-1; pos++ {
			l := labels[order[pos]]
			leftDist[l]++
			rightDist[l]--
			v, next := x.At(order[pos], f), x.At(order[pos+1], f)
			if v == next {
				continue
			}
			nl, nr := float64(pos+1), n-float64(pos+1)
			g := parentGini - (nl/n)*gini(leftDist, nl) - (nr/n)*gini(rightDist, nr)
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = (v + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0
	}
	return bestFeature, bestThreshold, bestGain
}

func gini(dist []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range dist {
		p := c / n
		g -= p * p
	}
	return g
}

func majorityClass(dist []float64, n int) (class int, pure bool) {
	best, bestC := -1.0, 0
	for c, v := range dist {
		if v > best {
			best, bestC = v, c
		}
	}
	return bestC, best == float64(n)
}

func normalize(dist []float64, n int) []float64 {
	out := make([]float64, len(dist))
	if n == 0 {
		return out
	}
	for i, v := range dist {
		out[i] = v / float64(n)
	}
	return out
}

// Predict implements Classifier.
func (m *DecisionTree) Predict(x *tensor.Matrix) ([]int, error) {
	if m.root == nil {
		return nil, ErrNotFitted
	}
	out := make([]int, x.Rows())
	for i := range out {
		out[i] = m.predictRow(x.Row(i))
	}
	return out, nil
}

// PredictBatch implements Classifier: each row gets its leaf's class
// distribution.
func (m *DecisionTree) PredictBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	if m.root == nil {
		return nil, ErrNotFitted
	}
	out := tensor.New(x.Rows(), m.classes)
	for i := 0; i < x.Rows(); i++ {
		copy(out.Row(i), m.PredictProba(x.Row(i)))
	}
	return out, nil
}

// Classes implements Classifier.
func (m *DecisionTree) Classes() int { return m.classes }

// PredictProba returns per-class leaf distributions (used by the forest).
func (m *DecisionTree) PredictProba(row []float64) []float64 {
	node := m.root
	for !node.leaf {
		if row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.dist
}

func (m *DecisionTree) predictRow(row []float64) int {
	node := m.root
	for !node.leaf {
		if row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.class
}
