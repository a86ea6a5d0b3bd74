// Copyright (c) 2026 The PACMAN reproduction authors.
// Forwarding header: the access contexts live in proc/access_context.h.
// Kept only for perfbench/ladder.cc, which still includes this name; new
// code includes proc/access_context.h.
#ifndef PACMAN_PROC_INTERPRETER_H_
#define PACMAN_PROC_INTERPRETER_H_

#include "proc/access_context.h"

#endif  // PACMAN_PROC_INTERPRETER_H_
