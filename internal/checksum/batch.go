package checksum

// PartitionColMismatches splits slab-wide column-mismatch reports by batch
// item. A batch slab stacks count items vertically (item i occupies row
// strips [i·stripsPerItem, (i+1)·stripsPerItem)), so one VerifyCol pass
// over the whole slab verifies every item at once; this maps each mismatch
// back to the item it belongs to, with the strip index rebased to be
// item-relative. Out-of-range strips (never produced by VerifyCol on a
// well-formed slab) are dropped.
func PartitionColMismatches(ms []Mismatch, stripsPerItem, count int) [][]Mismatch {
	out := make([][]Mismatch, count)
	if stripsPerItem <= 0 {
		return out
	}
	for _, m := range ms {
		i := m.Strip / stripsPerItem
		if i < 0 || i >= count {
			continue
		}
		m.Strip -= i * stripsPerItem
		out[i] = append(out[i], m)
	}
	return out
}
