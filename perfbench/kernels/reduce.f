! reduce: one long dot product, a proven reduction whose partials the
! parallel modes fold in iteration order. Deck: A, B (seeded).
PROGRAM REDUCE
  PARAMETER (N = 40000)
  REAL X(N), Y(N), S, P
  INTEGER I, A, B
  READ *, A, B
  DO I = 1, N
    X(I) = MOD(I * A, 1009) * 0.001
    Y(I) = MOD(I * B, 997) * 0.002 - 1.0
  END DO
  S = 0.0
  DO I = 1, N
    S = S + X(I) * Y(I)
  END DO
  PRINT *, S
END
