package tensor

import (
	"math"
	"math/rand"
)

// RandUniform returns a rows x cols matrix with entries drawn uniformly
// from [lo, hi) using rng.
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	span := hi - lo
	for i := range m.data {
		m.data[i] = lo + span*rng.Float64()
	}
	return m
}

// RandNormal returns a rows x cols matrix with N(mean, std^2) entries.
func RandNormal(rng *rand.Rand, rows, cols int, mean, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = mean + std*rng.NormFloat64()
	}
	return m
}

// GlorotUniform returns a matrix initialized with the Glorot/Xavier uniform
// scheme for a layer with the given fan-in and fan-out, the initialization
// Keras (the paper's substrate) uses by default for dense and GRU kernels.
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int) *Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, fanIn, fanOut, -limit, limit)
}
