package stats

// Bucket exposes the table lookup to the external bucket tests, which
// import the packages that own the production bound sets.
func (b *Bounds) Bucket(v float64) int { return b.bucket(v) }
