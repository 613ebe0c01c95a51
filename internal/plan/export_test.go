package plan

// Test seams for the feedback loop: external tests seed observations
// directly instead of constructing graphs large enough to cross the real
// engine thresholds (ParallelMinEntities is 200k entities).

// SeedObservationForTest records a cardinality observation as if a plan
// with this logical key had executed and reported it.
func SeedObservationForTest(f *Feedback, key string, entities, results int) {
	f.observe(key, entities, results)
}
