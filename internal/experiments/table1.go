package experiments

import (
	"fmt"
	"strings"

	"repro/internal/eval"
)

// Table1 renders the experimental parameter matrix (the paper's
// Table 1) from the active configuration, so the printed parameters
// are always the ones the other drivers actually use.
func Table1(cfg Config) string {
	joinF := func(fs []float64, format string) string {
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = fmt.Sprintf(format, f)
		}
		return strings.Join(parts, ", ")
	}
	t := eval.NewTable("Parameter", "Dictionary Attack", "Focused Attack", "RONI Defense", "Threshold Defense")
	t.AddRow("Training set size",
		fmt.Sprintf("%d", cfg.TrainSize),
		fmt.Sprintf("%d", cfg.FocusedInbox),
		fmt.Sprintf("%d", cfg.RONI.TrainSize),
		fmt.Sprintf("%d", cfg.TrainSize))
	t.AddRow("Test set size",
		fmt.Sprintf("%d", cfg.InboxSize()-cfg.TrainSize),
		"N/A",
		fmt.Sprintf("%d", cfg.RONI.ValSize),
		fmt.Sprintf("%d", cfg.InboxSize()-cfg.TrainSize))
	t.AddRow("Spam prevalence",
		fmt.Sprintf("%.2f", cfg.SpamPrevalence),
		fmt.Sprintf("%.2f", cfg.SpamPrevalence),
		fmt.Sprintf("%.2f", cfg.RONI.SpamPrevalence),
		fmt.Sprintf("%.2f", cfg.SpamPrevalence))
	t.AddRow("Attack fraction",
		joinF(cfg.Fractions, "%.3f"),
		fmt.Sprintf("%.3f to %.3f (%d steps)",
			cfg.VolumeSteps[0], cfg.VolumeSteps[len(cfg.VolumeSteps)-1], len(cfg.VolumeSteps)),
		"per-message",
		joinF(cfg.ThresholdFractions, "%.3f"))
	t.AddRow("Folds of validation",
		fmt.Sprintf("%d", cfg.Folds),
		fmt.Sprintf("%d repetitions", cfg.FocusedReps),
		fmt.Sprintf("%d repetitions", cfg.RONI.Trials),
		fmt.Sprintf("%d", cfg.ThresholdFolds))
	t.AddRow("Target emails",
		"N/A",
		fmt.Sprintf("%d", cfg.FocusedTargets),
		"N/A",
		"N/A")
	return "Table 1: Parameters used in our experiments.\n" + t.String()
}
