package lib

import "sort"

func OnlyTests() {} // want `exported function OnlyTests has no non-test reference`
func Called()    {}

//nolint:deadexport // test seam: app tests
func Seam() {}

func Bare() {} //nolint // want `exported function Bare has no non-test reference`

type (
	I      interface{ M() }
	T      struct{}
	Sorted []int
	Config struct {
		Set   int
		Local int // want `field Config.Local has no non-test reference outside package lib`
	}
)

var _ I = (*T)(nil)

func (*T) M()                       {}
func (T) N()                        {} // want `exported method T.N has no non-test reference`
func (s Sorted) Len() int           { return len(s) }
func (s Sorted) Less(i, j int) bool { return s[i] < s[j] }
func (s Sorted) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func New(c Config) int {
	sort.Sort(Sorted(nil))
	return c.Local
}
