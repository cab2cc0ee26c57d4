package lib

import "testing"

func TestOnly(t *testing.T) {
	OnlyTests()
	New(Config{Local: 1})
}
