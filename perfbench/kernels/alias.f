! alias: a CALL passes two disjoint halves of one array, so the static
! alias test must assume overlap (MaybeParallel); speculation commits.
! Deck: A (seeded).
PROGRAM ALIAS
  PARAMETER (N = 20000)
  REAL W(40000), S
  INTEGER I, A
  READ *, A
  DO I = 1, 40000
    W(I) = MOD(I * A, 1013) * 0.25
  END DO
  CALL SCALE2(W(1), W(20001), N)
  S = 0.0
  DO I = 1, 40000
    S = S + W(I)
  END DO
  PRINT *, S, W(1), W(40000)
END

SUBROUTINE SCALE2(X, Y, N)
  INTEGER N, I
  REAL X(N), Y(N)
  DO I = 1, N
    X(I) = 2.0 * Y(I) + 1.0
  END DO
  RETURN
END
