# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with status CODE and its stderr matches the regex MSG.
#   cmake -DEXE=... -DARGS="--app bogus" -DCODE=2 -DMSG="unknown app" \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${CODE}")
  message(FATAL_ERROR "'${ARGS}': exit status ${status}, expected ${CODE}\n"
                      "stderr: ${err}")
endif()
if(NOT err MATCHES "${MSG}")
  message(FATAL_ERROR "'${ARGS}': stderr does not match '${MSG}':\n${err}")
endif()
