! jacobi: 2-D four-point stencil plus grid copy, NT timesteps read from
! the deck. Both J loops are proven parallel: two fork/joins per step.
! Deck: NT, A, B (seeded initial-grid coefficients). The checksum adds
! one column sum per J iteration: a reduction that adds several terms per
! parallel iteration is re-associated by the parallel fold and can differ
! from serial in the last bit.
PROGRAM JACOBI
  PARAMETER (N = 160)
  REAL U(N, N), V(N, N), C(N), S
  INTEGER I, J, T, NT, A, B
  READ *, NT, A, B
  DO J = 1, N
    DO I = 1, N
      U(I, J) = MOD(I * A + J * B, 97) * 0.01
      V(I, J) = U(I, J)
    END DO
  END DO
  DO T = 1, NT
    DO J = 2, N - 1
      DO I = 2, N - 1
        V(I, J) = 0.25 * (U(I - 1, J) + U(I + 1, J) + U(I, J - 1) + U(I, J + 1))
      END DO
    END DO
    DO J = 2, N - 1
      DO I = 2, N - 1
        U(I, J) = V(I, J)
      END DO
    END DO
  END DO
  S = 0.0
  DO J = 1, N
    C(J) = 0.0
    DO I = 1, N
      C(J) = C(J) + U(I, J)
    END DO
  END DO
  DO J = 1, N
    S = S + C(J)
  END DO
  PRINT *, S, U(2, 2), U(N / 2, N / 2)
END
