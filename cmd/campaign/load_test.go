package main

import "stopwatchsim/internal/campaign"

// loadSpec reads a spec file the way `campaign run` does.
func loadSpec(specPath, basePath string) (*campaign.Spec, error) { return cli.Load(specPath, basePath) }
