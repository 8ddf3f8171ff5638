package experiments

import "fmt"

// pct formats a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
