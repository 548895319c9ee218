//go:build !race

package core

// raceBuild reports a -race build; see race_test.go.
const raceBuild = false
