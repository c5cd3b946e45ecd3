package failure

import "math/rand"

// FlipBit flips one uniformly random bit in data, returning the byte index
// and bit position. It mimics the paper's fault injector, which "injects a
// fault by flipping a randomly selected bit in the user data that will be
// checkpointed" (§6.1). Empty data is a no-op and returns (-1, -1).
func FlipBit(data []byte, rng *rand.Rand) (byteIdx, bit int) {
	if len(data) == 0 {
		return -1, -1
	}
	byteIdx = rng.Intn(len(data))
	bit = rng.Intn(8)
	data[byteIdx] ^= 1 << bit
	return byteIdx, bit
}
