package lib

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest() != 1 {
		t.Fatal("OnlyTest")
	}
}
