package core

// RadixSort sorts xs, whose values lie below 2^bits, in place with an
// LSD radix sort of 8-bit digits, using tmp (len(tmp) ≥ len(xs)) as the
// second buffer. A pass whose digit never varies moves nothing.
func RadixSort(xs, tmp []uint64, bits int) {
	if len(xs) < 2 {
		return
	}
	src, dst := xs, tmp[:len(xs)]
	var count [256]int
	for shift := 0; shift < bits; shift += 8 {
		clear(count[:])
		for _, x := range src {
			count[x>>shift&0xff]++
		}
		if count[src[0]>>shift&0xff] == len(src) {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i], sum = sum, sum+c
		}
		for _, x := range src {
			k := x >> shift & 0xff
			dst[count[k]] = x
			count[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}
