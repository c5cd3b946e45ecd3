package main

import "fixture/lib"

func main() {
	lib.ViaMain()
	var t lib.T
	t.M()
	_ = t.Answer()
	_ = lib.Has(t)
	lib.Print()
	_ = lib.Unbox()
}
