package deadexport_test

import (
	"testing"

	"mobiledl/tools/analyzers/analysistest"
	"mobiledl/tools/analyzers/deadexport"
)

// TestDeadExport covers test-only and cross-package callers, interface-kept
// methods, package-local settings, both nolint forms and internal/ scoping.
func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "testdata", deadexport.Analyzer, nil, "./...")
}
