package mis

// UColor exposes the uniform algorithm's coloring message to the external
// tests.
type UColor = uColor
