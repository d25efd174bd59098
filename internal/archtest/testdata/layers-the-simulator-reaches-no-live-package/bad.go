package hotc

import live "hotc/internal/prefork"

var _ live.Pool
