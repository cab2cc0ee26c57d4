package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mobiledl/internal/data"
)

// quickResults is one Quick-scale run of every experiment's typed rows. The
// golden test and the trend tests read the same run, so each experiment
// trains once per test binary.
type quickResults struct {
	table1    []Table1Row
	fig5      []Fig5Point
	fig6      []data.UserPatternSummary
	selsgd    []SelSGDPoint
	fedavg    []FedAvgRow
	fedTarget float64
	dpfed     []DPFedRow
	dpStrong  float64
	placement []PlacementRow
	arden     []ArdenRow
	compress  []CompressRow
	lowrank   []LowRankRow
	distill   []DistillRow
	deepmood  []DeepMoodRow
	pairid    PairIDResult
}

var quickOnce = sync.OnceValues(func() (*quickResults, error) {
	var r quickResults
	var err error
	steps := []func() error{
		func() error { r.table1, err = Table1(Quick); return err },
		func() error { r.fig5, err = Fig5(Quick); return err },
		func() error { r.fig6, err = fig6(Quick); return err },
		func() error { r.selsgd, err = SelSGD(Quick); return err },
		func() error { r.fedavg, r.fedTarget, err = FedAvgComparison(Quick); return err },
		func() error { r.dpfed, r.dpStrong, err = DPFed(Quick); return err },
		func() error { r.placement, err = Placement(Quick); return err },
		func() error { r.arden, err = Arden(Quick); return err },
		func() error { r.compress, err = Compression(Quick); return err },
		func() error { r.lowrank, err = LowRank(Quick); return err },
		func() error { r.distill, err = Distillation(Quick); return err },
		func() error { r.deepmood, err = DeepMoodComparison(Quick); return err },
		func() error { r.pairid, err = PairID(Quick); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return &r, nil
})

// quick returns the shared Quick run, failing the test if any experiment
// errored.
func quick(t *testing.T) *quickResults {
	t.Helper()
	r, err := quickOnce()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// golden renders every row at full precision: %+v prints a float64 as its
// shortest round-tripping decimal, so a one-ulp drift changes the text.
func (r *quickResults) golden() []byte {
	var buf bytes.Buffer
	for _, sec := range []struct {
		name string
		v    any
	}{
		{"arden", r.arden},
		{"compress", r.compress},
		{"deepmood", r.deepmood},
		{"distill", r.distill},
		{"dpfed", r.dpfed},
		{"dpfed strong-composition epsilon", r.dpStrong},
		{"fedavg", r.fedavg},
		{"fedavg target", r.fedTarget},
		{"fig5", r.fig5},
		{"fig6", r.fig6},
		{"lowrank", r.lowrank},
		{"pairid", r.pairid},
		{"placement", r.placement},
		{"selsgd", r.selsgd},
		{"table1", r.table1},
	} {
		fmt.Fprintf(&buf, "== %s\n", sec.name)
		if v := reflect.ValueOf(sec.v); v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				fmt.Fprintf(&buf, "%+v\n", v.Index(i).Interface())
			}
			continue
		}
		fmt.Fprintf(&buf, "%+v\n", sec.v)
	}
	return buf.Bytes()
}
