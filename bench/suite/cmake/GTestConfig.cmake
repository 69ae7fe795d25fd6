# Stand-in for googletest when the suite configures the root project: the
# root's test targets link against these names but are never built here.
if(NOT TARGET GTest::gtest)
  add_library(GTest::gtest INTERFACE IMPORTED)
  add_library(GTest::gtest_main INTERFACE IMPORTED)
endif()
