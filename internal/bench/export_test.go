package bench

import (
	"context"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/soc"
)

// Frames exposes frames to the external tests.
func (r Run) Frames(ctx context.Context, m *models.Model, configured *soc.SoC) ([]core.StageTimes, Sample, error) {
	return r.frames(ctx, m, configured)
}
