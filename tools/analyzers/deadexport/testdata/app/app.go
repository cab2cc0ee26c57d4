// Package app sits outside internal/: its exports go unreported.
package app

import "mobiledl/internal/lib"

func Unused() int {
	lib.Called()
	return lib.New(lib.Config{Set: 2})
}
