package mapreduce

// DecodePairs exposes the worker's shuffle-run decoder to the external
// fuzz test, which drives it with the real SPQ codecs (package data
// imports this one, so they cannot be named from an internal test).
func DecodePairs[K, V any](data []byte, records int, kc *Codec[K], vc *Codec[V]) ([]Pair[K, V], error) {
	return decodePairs(data, records, kc, vc)
}
