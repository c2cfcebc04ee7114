! conflict: like gather, but every Q-th target is replaced by the target
! of the iteration half the range away, so a few updates read an element
! another speculative chunk wrote and roll back. Profiled with Q = 0
! (no collisions). Deck: P (coprime to N), Q (seeded).
PROGRAM CONFL
  PARAMETER (N = 20000)
  REAL X(N), Y(N), S
  INTEGER IDX(N), I, P, Q
  READ *, P, Q
  DO I = 1, N
    IDX(I) = MOD(I * P, N) + 1
    Y(I) = MOD(I * 7, 101) * 0.01
    X(I) = 1.0
  END DO
  IF (Q .GT. 0) THEN
    DO I = Q, N, Q
      IDX(I) = IDX(MOD(I + N / 2, N) + 1)
    END DO
  END IF
  DO I = 1, N
    X(IDX(I)) = X(IDX(I)) * 0.5 + Y(I)
  END DO
  S = 0.0
  DO I = 1, N
    S = S + X(I) * I
  END DO
  PRINT *, S, X(1), X(N)
END
