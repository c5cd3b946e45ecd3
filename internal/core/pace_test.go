package core

import (
	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
)

// pace turns cfg into a commit-paced job (internal/chaos/pacing): no checkpoint
// timer, a round every `every` iterations. next, if non-nil, sees every
// firing before the pacer. A test that injects a hard error calls Stop on
// the pacer first.
func pace(cfg *Config, ctrl **Controller, every int, next point.Hook) *pacing.Pacer {
	p := pacing.New(func() { (*ctrl).PredictFailure() }, every, next)
	cfg.CheckpointInterval = 0
	cfg.Chaos = p
	return p
}
