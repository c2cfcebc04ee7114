! gather: scatter through a seeded permutation IDX. The indirect
! subscript blocks the static proof (MaybeParallel); at run time the
! writes never collide, so speculation commits. Deck: P (coprime to N).
PROGRAM GATHER
  PARAMETER (N = 20000)
  REAL X(N), Y(N), S
  INTEGER IDX(N), I, P
  READ *, P
  DO I = 1, N
    IDX(I) = MOD(I * P, N) + 1
    Y(I) = MOD(I * 7, 101) * 0.01
    X(I) = 0.0
  END DO
  DO I = 1, N
    X(IDX(I)) = 0.5 * Y(I) + 1.0
  END DO
  S = 0.0
  DO I = 1, N
    S = S + X(I) * I
  END DO
  PRINT *, S, X(1), X(N)
END
