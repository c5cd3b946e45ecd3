package lib

import "testing"

func TestOnlyTest(t *testing.T) {
	if OnlyTest() != 1 || (T{}).TestOnly() != 2 {
		t.Fatal("OnlyTest")
	}
}
