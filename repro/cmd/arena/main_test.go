package main

import (
	"strings"
	"testing"
)

// The exit rule: a run with a failed cell returns an error naming how many
// cells failed, and the same run over working methods returns nil.
func TestRunFailsOnFailedCell(t *testing.T) {
	err := run([]string{"-gen", "sbm:300", "-methods", "tpa,nosuch", "-queries", "2"})
	if err == nil {
		t.Fatal("run with an unknown method succeeded")
	}
	if !strings.Contains(err.Error(), "1 of 2 cells failed") {
		t.Fatalf("error %q does not name 1 of 2 failed cells", err)
	}
}

func TestRunSucceeds(t *testing.T) {
	if err := run([]string{"-gen", "sbm:300", "-methods", "tpa", "-queries", "2"}); err != nil {
		t.Fatal(err)
	}
}
